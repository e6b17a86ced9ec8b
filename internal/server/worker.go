package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// Worker is the pull side of the shard protocol: the loop behind
// `faultserverd -worker -coordinator=URL`. It polls the coordinator for
// experiment-range shards, executes each on the process-wide pooled
// fault runner (the golden run of a campaign is simulated once per
// worker process and reused across its shards), streams throttled
// partial tallies back, and submits the per-experiment outcomes.
//
// The loop is crash-only by design: a worker that dies mid-shard simply
// stops reporting, and the coordinator requeues the shard once its
// lease TTL expires. Conversely a worker whose coordinator disappears
// (progress answers cancel, or complete answers 410 Gone) abandons the
// shard and keeps polling.
type Worker struct {
	// Coordinator is the coordinator daemon's base URL
	// (e.g. http://127.0.0.1:8080).
	Coordinator string
	// Name identifies the worker in leases and pool statistics.
	Name string
	// Workers bounds the intra-shard experiment parallelism
	// (0 = GOMAXPROCS).
	Workers int
	// Poll is the idle re-poll interval when the coordinator has no
	// pending shards. Default 250ms.
	Poll time.Duration
	// BackoffMax caps the exponential backoff between failed coordinator
	// polls. Default 5s. Backoff sleeps are jittered (uniform over
	// [d/2, d)) so a fleet of workers orphaned by a coordinator crash
	// does not re-lease in lockstep the moment it restarts.
	BackoffMax time.Duration
	// Client overrides the HTTP client (tests inject httptest clients).
	Client *http.Client
	// Log, when non-nil, receives worker lifecycle messages; nil
	// discards.
	Log *slog.Logger
	// Obs, when non-nil, receives the worker's counters
	// (worker_shards_executed_total, worker_report_retries_total,
	// worker_dropped_total) and the current lease-poll backoff gauge —
	// the series behind a worker-mode -metrics-addr listener.
	Obs *obs.Registry

	stats WorkerStats
	// backoffNanos is the current lease-poll backoff, exported as the
	// worker_backoff_seconds gauge: zero while the coordinator answers,
	// climbing toward BackoffMax while it is unreachable.
	backoffNanos int64
}

// WorkerStats counts a worker's shard and report-channel outcomes.
// Retries are re-sent completion/failure reports after a transient
// coordinator error; Dropped are shards whose completed work was
// abandoned after every retry failed (the lease TTL requeues them — the
// experiments are re-executed, never lost).
type WorkerStats struct {
	ShardsExecuted int64 `json:"shards_executed"`
	ReportRetries  int64 `json:"report_retries"`
	Dropped        int64 `json:"dropped"`
}

// Stats returns the worker's counters. Safe for concurrent use.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		ShardsExecuted: atomic.LoadInt64(&w.stats.ShardsExecuted),
		ReportRetries:  atomic.LoadInt64(&w.stats.ReportRetries),
		Dropped:        atomic.LoadInt64(&w.stats.Dropped),
	}
}

// RegisterMetrics exposes the worker's counters on reg at scrape time.
// Call once before Run; a nil registry is a no-op.
func (w *Worker) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("worker_shards_executed_total",
		"Shards this worker leased and executed.", func() float64 {
			return float64(atomic.LoadInt64(&w.stats.ShardsExecuted))
		})
	reg.CounterFunc("worker_report_retries_total",
		"Terminal shard reports re-sent after a transient coordinator error.", func() float64 {
			return float64(atomic.LoadInt64(&w.stats.ReportRetries))
		})
	reg.CounterFunc("worker_dropped_total",
		"Completed shards abandoned after every report retry failed.", func() float64 {
			return float64(atomic.LoadInt64(&w.stats.Dropped))
		})
	reg.GaugeFunc("worker_backoff_seconds",
		"Current lease-poll backoff (zero while the coordinator answers).", func() float64 {
			return time.Duration(atomic.LoadInt64(&w.backoffNanos)).Seconds()
		})
}

func (w *Worker) log() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return slog.New(slog.DiscardHandler)
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 250 * time.Millisecond
}

func (w *Worker) backoffMax() time.Duration {
	if w.BackoffMax > 0 {
		return w.BackoffMax
	}
	return 5 * time.Second
}

// Run pulls and executes shards until ctx is cancelled. Transient
// coordinator errors (connection refused, 5xx) back off — exponentially,
// jittered, capped at BackoffMax — and retry: workers are expected to
// outlive coordinator restarts, and the jitter spreads a whole fleet's
// re-lease stampede after one.
func (w *Worker) Run(ctx context.Context) error {
	w.RegisterMetrics(w.Obs)
	defer func() {
		// The final line a dying worker leaves behind: how much it did and
		// how much of its work had to be abandoned to the lease TTL.
		st := w.Stats()
		w.log().Info("worker shutting down",
			"shards_executed", st.ShardsExecuted,
			"report_retries", st.ReportRetries,
			"dropped", st.Dropped)
	}()
	backoff := w.poll()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := w.lease()
		if err != nil {
			atomic.StoreInt64(&w.backoffNanos, int64(backoff))
			w.log().Warn("lease poll failed", "error", err, "backoff", backoff)
			if !sleepJitter(ctx, backoff) {
				return ctx.Err()
			}
			if backoff < w.backoffMax() {
				backoff *= 2
				if backoff > w.backoffMax() {
					backoff = w.backoffMax()
				}
			}
			continue
		}
		backoff = w.poll()
		atomic.StoreInt64(&w.backoffNanos, 0)
		if lease == nil {
			if !sleep(ctx, w.poll()) {
				return ctx.Err()
			}
			continue
		}
		w.runShard(ctx, lease)
	}
}

// sleep waits d or until ctx dies; it reports whether ctx is still live.
func sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// sleepJitter waits a uniform duration in [d/2, d). Thundering-herd
// breaker: after a coordinator restart every orphaned worker is in the
// same backoff state, and identical sleeps would land their re-lease
// polls in the same instant.
func sleepJitter(ctx context.Context, d time.Duration) bool {
	if d <= 1 {
		return sleep(ctx, d)
	}
	return sleep(ctx, d/2+time.Duration(rand.Int63n(int64(d/2))))
}

// runShard executes one leased shard and reports it back. RunLease owns
// the execution — keepalives inside the lease TTL, throttled and
// serialized progress reports, cancellation on the coordinator's word —
// so only the settle step is spelled out here.
func (w *Worker) runShard(ctx context.Context, lease *jobs.ShardLease) {
	atomic.AddInt64(&w.stats.ShardsExecuted, 1)
	w.log().Info("shard leased", "shard", lease.Range.Index,
		"start", lease.Range.Start, "end", lease.Range.End,
		"campaign", lease.Key[:min(12, len(lease.Key))])
	out, err := jobs.RunLease(ctx, lease, w.Workers, w.Obs, func(done, failures int) bool {
		return w.progress(lease.Lease, done, failures)
	})
	if out == nil {
		// The engine never produced anything (runner build failure or the
		// worker's own shutdown): release the lease for someone else.
		w.log().Warn("shard failed", "shard", lease.Range.Index, "error", err)
		w.report(ctx, lease.Lease, "fail", struct {
			Error string `json:"error"`
		}{fmt.Sprintf("%v", err)}, "failure report")
		return
	}
	// Completed, cancelled by the coordinator's stop rule, or the worker
	// is shutting down mid-shard: submit what ran. The coordinator folds
	// a partial once the campaign has stopped and requeues it otherwise.
	w.report(ctx, lease.Lease, "complete", out, fmt.Sprintf("shard result (%d experiments)", len(out.Experiments)))
}

// lease asks for the next shard; nil without error means no work.
func (w *Worker) lease() (*jobs.ShardLease, error) {
	body, _ := json.Marshal(struct {
		Worker string `json:"worker"`
	}{Worker: w.Name})
	resp, err := w.post(w.Coordinator+"/api/v1/shards/lease", body)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var lease jobs.ShardLease
		if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
			return nil, err
		}
		return &lease, nil
	default:
		return nil, fmt.Errorf("lease: HTTP %d", resp.StatusCode)
	}
}

// progress reports a tally; true means cancel the shard.
func (w *Worker) progress(lease string, done, failures int) (cancel bool) {
	body, _ := json.Marshal(struct {
		Done     int `json:"done"`
		Failures int `json:"failures"`
	}{Done: done, Failures: failures})
	resp, err := w.post(w.Coordinator+"/api/v1/shards/"+lease+"/progress", body)
	if err != nil {
		// A transient network error is not a cancellation: keep computing
		// and let the next report (or the TTL) sort it out.
		w.log().Debug("progress report failed", "error", err)
		return false
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return true
	}
	var rep struct {
		Cancel bool `json:"cancel"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return false
	}
	return rep.Cancel
}

// reportAttempts bounds terminal-report retries: enough to ride out a
// coordinator restart (with backoff the window is several seconds),
// bounded so a worker never wedges on a permanently dead coordinator —
// past it the lease TTL requeues the shard and the work is merely
// re-executed, never lost.
const reportAttempts = 5

// report delivers one terminal shard report: "complete" with the shard's
// outcomes, or "fail" with the error that releases the lease. Transient
// errors (network, 5xx) retry with jittered exponential backoff, because
// one flaky round trip must not discard a whole shard's completed
// experiments, nor leave a failed shard pinned until the lease TTL instead
// of re-leasing it promptly; only exhausting every retry drops the
// report, and that is counted (WorkerStats.Dropped) and logged. 410 Gone
// (lease expired, work redone elsewhere) and other 4xx answers are
// permanent. A worker already shutting down gets one quick retry instead
// of the full schedule so the final partial still has a chance to land
// without stalling process exit.
func (w *Worker) report(ctx context.Context, lease, kind string, payload any, what string) {
	body, err := json.Marshal(payload)
	if err != nil {
		w.log().Error("encoding shard report failed", "kind", kind, "error", err)
		return
	}
	url := w.Coordinator + "/api/v1/shards/" + lease + "/" + kind
	backoff := 250 * time.Millisecond
	for attempt := 1; ; attempt++ {
		resp, err := w.post(url, body)
		if err == nil {
			code := resp.StatusCode
			drain(resp)
			switch {
			case code == http.StatusOK:
				if attempt > 1 {
					w.log().Info("report delivered after retries", "kind", kind, "attempt", attempt)
				}
				return
			case code == http.StatusGone:
				w.log().Info("lease expired, work redone elsewhere; discarding", "kind", kind)
				return
			case code >= 400 && code < 500:
				w.log().Warn("permanent report rejection; discarding", "kind", kind, "code", code, "what", what)
				return
			}
			err = fmt.Errorf("HTTP %d", code)
		}
		if attempt >= reportAttempts || (ctx.Err() != nil && attempt >= 2) {
			atomic.AddInt64(&w.stats.Dropped, 1)
			w.log().Warn("dropping report; the lease TTL will requeue the shard",
				"kind", kind, "error", err, "attempts", attempt, "what", what)
			return
		}
		atomic.AddInt64(&w.stats.ReportRetries, 1)
		w.log().Warn("report failed, retrying", "kind", kind, "error", err,
			"attempt", attempt, "max_attempts", reportAttempts, "backoff", backoff)
		if ctx.Err() != nil {
			time.Sleep(200 * time.Millisecond) // shutting down: one quick retry
		} else {
			sleepJitter(ctx, backoff)
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

func (w *Worker) post(url string, body []byte) (*http.Response, error) {
	// Reports must still reach the coordinator while the worker's own
	// ctx is shutting down (the final partial complete), so requests run
	// on a short independent timeout instead of ctx.
	rctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelBody releases the request's timeout context with its body.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	b.cancel()
	return b.ReadCloser.Close()
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
