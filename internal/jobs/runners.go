package jobs

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// runnerKey identifies a memoized fault runner: the workload, its
// configuration and the full runner options that shape golden run,
// checkpoint and engine behaviour. Request fields that only affect
// sampling (Nodes, Seed) deliberately do not participate, and neither does
// the observability registry: it is a sink, never an input, so two
// requests that differ only in it want the same golden run (nor, being a
// pointer, could two equal-valued options ever collide on it). The first
// build of a key decides which registry its engine counters feed — in the
// daemon every build goes through the manager's registry, so this is moot
// there.
type runnerKey struct {
	name string
	cfg  workloads.Config
	opts fault.Options
}

func keyFor(name string, cfg workloads.Config, fopts fault.Options) runnerKey {
	fopts.Obs = nil
	return runnerKey{name: name, cfg: cfg, opts: fopts}
}

// issRunnerKey identifies a memoized ISS runner: the RTL runnerKey plus
// the timebase pinning (cycleRef, fixedCycle) — an ISS runner pinned to
// a different RTL golden length is a different engine.
type issRunnerKey struct {
	runnerKey
	cycleRef   uint64
	fixedCycle uint64
}

// onceCache memoizes engine builds process-wide: at most maxRunners
// entries, evicted least-recently-used, each built exactly once — by the
// first caller, under buildSem — while later callers of the same key wait
// for that build and share its result, failure included. runnerCache and
// issRunnerCache are the two.
type onceCache[K comparable, V any] struct {
	// build makes a key's value, its engine counters fed to the registry
	// given.
	build func(K, *obs.Registry) (V, error)
	mu    sync.Mutex
	m     map[K]*onceEntry[V]
	order []K // recency order, oldest first, for LRU eviction
}

type onceEntry[V any] struct {
	once  sync.Once
	built atomic.Bool // v and err are set
	v     V
	err   error
}

// maxRunners bounds each memoized runner cache. The paper's artifacts
// only ever need a dozen entries, but the job service keys the caches from
// client-supplied requests, so an unbounded map would let a request stream
// with ever-new injection instants pin one golden run + golden ladder each
// until the daemon dies. A cached runner pins its golden write trace, its
// node enumerations and — once a campaign has used it — its ladder (at
// most 512 rungs in one slab of kernel-state copies plus the copy-on-write
// pages the program dirtied between golden writes: at most 6 MiB, about
// 3 MB for puwmod from reset) and its golden read log (what the golden run
// read of the nets campaigns have faulted so far: at most another 6 MiB,
// 1.7 MB for every IU net of rspeed from mid-run and 3.4 MB of puwmod from
// reset; DESIGN.md §10), however long the run — and its verdict table,
// what the permanent forcings campaigns activated came to: at most two
// entries of about 130 bytes per node of the faulted populations, 1.5 MB
// for every IU node, in practice the activated quarter. A full cache
// therefore holds at most 64 x 14 MiB of golden state and verdicts beside
// the traces, and nears that only if every entry is driven over all of its
// nets on a long run. Eviction only drops the memoization: runners still
// referenced by in-flight campaigns stay alive until those campaigns
// finish.
const maxRunners = 64

// buildSem bounds concurrent golden-run constructions: each is a full
// simulation of a workload's fault-free run, so an unbounded number of
// them (e.g. a burst of distinct job-service requests) would swamp the
// cores the campaigns themselves need. Cache hits never touch it.
var buildSem = make(chan struct{}, runtime.GOMAXPROCS(0))

// get returns key's memoized value, running build for it on first use. A
// built entry is returned directly. A build runs on the caller's goroutine
// when ctx can never end, and otherwise on its own, waited for until ctx
// ends: the golden-run simulation inside cannot be interrupted mid-flight,
// so on ctx expiry it is left to finish in the background — where it still
// fills the entry for a later caller — and get returns ctx.Err() promptly.
// That is safe because buildSem bounds concurrent builds, so a
// submit-and-cancel loop over ever-new keys queues cheap goroutines, not
// simulations. A dead ctx returns its error before the lookup, so a caller
// draining queued work with a cancelled context starts no orphan build.
func (c *onceCache[K, V]) get(ctx context.Context, key K, reg *obs.Registry) (v V, err error) {
	if err = ctx.Err(); err != nil {
		return v, err
	}
	e := c.entry(key)
	if e.built.Load() || ctx.Done() == nil {
		c.fill(e, key, reg)
		return e.v, e.err
	}
	done := make(chan struct{})
	go func() {
		c.fill(e, key, reg)
		close(done)
	}()
	select {
	case <-done:
		return e.v, e.err
	case <-ctx.Done():
		return v, ctx.Err()
	}
}

// entry returns key's entry, built or not, adding it when missing.
func (c *onceCache[K, V]) entry(key K) *onceEntry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[K]*onceEntry[V])
	}
	e := c.m[key]
	if e == nil {
		for len(c.m) >= maxRunners {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
		e = &onceEntry[V]{}
		c.m[key] = e
		c.order = append(c.order, key)
	} else {
		// LRU touch: move the key to the back so the hottest runners are
		// the last to be evicted.
		for i, k := range c.order {
			if k == key {
				copy(c.order[i:], c.order[i+1:])
				c.order[len(c.order)-1] = key
				break
			}
		}
	}
	return e
}

// fill builds key's value into its entry e once, under buildSem.
func (c *onceCache[K, V]) fill(e *onceEntry[V], key K, reg *obs.Registry) {
	e.once.Do(func() {
		buildSem <- struct{}{}
		defer func() { <-buildSem }()
		e.v, e.err = c.build(key, reg)
		e.built.Store(true)
	})
}

// forget empties the cache; see ForgetRunners.
func (c *onceCache[K, V]) forget() {
	c.mu.Lock()
	c.m, c.order = nil, nil
	c.mu.Unlock()
}

// runnerCache shares the golden run and ladder of each (workload, config,
// options) triple across the job service's requests and the paper's
// artifacts, which run as requests too. Runners are safe for concurrent
// campaigns, so sharing one is sound.
var runnerCache = onceCache[runnerKey, *fault.Runner]{build: buildRunner}

var issRunnerCache = onceCache[issRunnerKey, *fault.ISSRunner]{build: buildISSRunner}

// ForgetRunners empties both runner caches, so that the next campaign of
// any key builds its runners anew; campaigns in flight keep the runner they
// hold. A runner keeps what its campaigns resolved, so a caller that wants
// a cold campaign's work counters — the tests that compare them across
// shard counts — forgets the warm runner first. Results never need it.
func ForgetRunners() {
	runnerCache.forget()
	issRunnerCache.forget()
}

// RunnerFor returns the process-wide memoized RTL runner of a (workload,
// config, runner options) triple, building it — golden run included — on
// first use: a cached runner is returned directly, and a build is waited
// for until ctx ends, then left to finish in the background (see
// onceCache.get). It is the cache a request's campaign runs on, for
// callers that hold a triple rather than a request.
func RunnerFor(ctx context.Context, name string, cfg workloads.Config, fopts fault.Options) (*fault.Runner, error) {
	return runnerCache.get(ctx, keyFor(name, cfg, fopts), fopts.Obs)
}

// ISSRunnerFor is RunnerFor for the ISS engine, cycleRef and fixedCycle
// its timebase pinning (both zero: the native instruction timebase).
func ISSRunnerFor(ctx context.Context, name string, cfg workloads.Config, fopts fault.Options, cycleRef, fixedCycle uint64) (*fault.ISSRunner, error) {
	return issRunnerCache.get(ctx, issRunnerKey{keyFor(name, cfg, fopts), cycleRef, fixedCycle}, fopts.Obs)
}

// runnerFor resolves the memoized RTL runner of a normalized request.
func runnerFor(ctx context.Context, n Request, reg *obs.Registry) (*fault.Runner, error) {
	return runnerCache.get(ctx, n.runnerKey(), reg)
}

// issRunnerFor resolves the memoized ISS runner of a normalized request.
// cycleRef/fixedCycle pin the engine to the RTL cycle timebase (hybrid);
// both zero select the native instruction timebase (engine "iss").
func issRunnerFor(ctx context.Context, n Request, reg *obs.Registry, cycleRef, fixedCycle uint64) (*fault.ISSRunner, error) {
	return issRunnerCache.get(ctx, issRunnerKey{n.runnerKey(), cycleRef, fixedCycle}, reg)
}

// buildRunner builds the runner of a runnerCache key.
func buildRunner(key runnerKey, reg *obs.Registry) (*fault.Runner, error) {
	w, err := workloads.Build(key.name, key.cfg)
	if err != nil {
		return nil, err
	}
	fopts := key.opts
	fopts.Obs = reg
	return fault.NewRunner(w.Program, fopts)
}

// buildISSRunner builds the runner of an issRunnerCache key.
func buildISSRunner(key issRunnerKey, reg *obs.Registry) (*fault.ISSRunner, error) {
	w, err := workloads.Build(key.name, key.cfg)
	if err != nil {
		return nil, err
	}
	fopts := key.opts
	fopts.Obs = reg
	return fault.NewISSRunner(w.Program, fopts, key.cycleRef, key.fixedCycle)
}
