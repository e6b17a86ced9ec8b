package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// gatedPersist is a journal stand-in whose shard completions can be held
// up, the way a descheduled worker would be, and which knows when whoever
// owns the journal has let go of it.
type gatedPersist struct {
	entered chan struct{} // closed when the first completion event arrives
	release chan struct{} // completion events return once this is closed
	once    sync.Once

	mu     sync.Mutex
	closed bool // the journal's owner has stopped waiting for events
	late   int  // events that arrived after that
}

func (g *gatedPersist) ShardEvent(typ, _ string, _ interface{}) {
	g.mu.Lock()
	if g.closed {
		g.late++
	}
	g.mu.Unlock()
	if typ == recShardCompleted {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
}

func (g *gatedPersist) TakeRecovered(string) []shardRecord { return nil }

// TestPoolWaitJoinsLocalWorkers holds ShardPool.Wait to what Manager.Close
// leans on before it closes the journal: Execute may return — here because
// its context is cancelled — while a local worker is still inside a journal
// append, and Wait returns only once that worker, and every other, is gone.
// No event reaches the journal afterwards.
func TestPoolWaitJoinsLocalWorkers(t *testing.T) {
	g := &gatedPersist{entered: make(chan struct{}), release: make(chan struct{})}
	pool := NewShardPool(ShardPoolOptions{Shards: 4, persist: g})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() {
		_, err := pool.Execute(ctx, Request{Workload: "excerptA", Nodes: 48, Seed: 1, InjectAtFraction: 0.3}, 2, nil)
		returned <- err
	}()
	<-g.entered // a local worker is inside its completion append
	cancel()
	if err := <-returned; !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute returned %v, want the cancellation", err)
	}
	joined := make(chan struct{})
	go func() {
		pool.Wait()
		g.mu.Lock()
		g.closed = true
		g.mu.Unlock()
		close(joined)
	}()
	select {
	case <-joined:
		t.Fatal("Wait returned while a local worker was still journaling")
	case <-time.After(50 * time.Millisecond):
	}
	close(g.release)
	select {
	case <-joined:
	case <-time.After(30 * time.Second):
		t.Fatal("Wait never returned")
	}
	// Nothing is left running that could still report.
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.late != 0 {
		t.Errorf("%d journal events arrived after Wait returned", g.late)
	}
}
