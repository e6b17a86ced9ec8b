package server_test

import (
	"context"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

// catalogRow is one row of README's metric catalog: a single family,
// optionally with its labels.
var catalogRow = regexp.MustCompile("^\\| `([a-z_]+)(\\{[a-z_,]+\\})?` \\|")

// TestMetricCatalogMatchesRegistry builds the whole stack on one registry
// — a durable, sharded manager behind server.New, a worker's metrics, an
// RTL runner, an ISS runner and the hybrid router (one hybrid campaign
// builds the last three) — and holds README's catalog to it: every family
// the registry holds has a row, and every row is a registered family.
func TestMetricCatalogMatchesRegistry(t *testing.T) {
	campaign.ForgetRunners() // a memoized runner feeds the registry it was built on
	reg := obs.NewRegistry()
	mgr, _, err := jobs.OpenManager(jobs.ManagerOptions{Concurrency: 1, Shards: 2, DataDir: t.TempDir(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(mgr, server.WithObs(reg)).Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	(&server.Worker{Coordinator: ts.URL}).RegisterMetrics(reg)

	// A seed no other test uses, so the hybrid plan is built here, on reg.
	_, st := post(t, ts.URL, jobs.Request{Workload: "excerptA", Models: []string{"sa1"}, Nodes: 8, Seed: 2029,
		Engine: "hybrid", RTLAudit: 0.5})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if final, err := mgr.Wait(ctx, st.ID); err != nil || final.State != jobs.StateDone {
		t.Fatalf("hybrid job ended %v / %s: %s", err, final.State, final.Error)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			registered[f[2]] = true
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Observability\n")
	section, _, _ = strings.Cut(section, "\n## ")
	catalog := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if m := catalogRow.FindStringSubmatch(line); m != nil {
			if catalog[m[1]] {
				t.Errorf("README catalog lists %s twice", m[1])
			}
			catalog[m[1]] = true
		} else if strings.HasPrefix(line, "| `") {
			t.Errorf("README catalog row does not name exactly one family: %s", line)
		}
	}

	for _, name := range sortedKeys(registered) {
		if !catalog[name] {
			t.Errorf("registered family %s has no row in README's metric catalog", name)
		}
	}
	for _, name := range sortedKeys(catalog) {
		if !registered[name] {
			t.Errorf("README's metric catalog lists %s, which nothing registers", name)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
