// Package mpi is an in-process message-passing runtime with MPI-shaped
// semantics: ranks, tagged point-to-point messages, and the collectives
// EASYPAP assignments use (barrier, broadcast, gather, reduce). It is the
// substitution documented in DESIGN.md for the real MPI processes the paper
// launches through mpirun: each rank runs as a goroutine group with its own
// private data (kernels never share image memory across ranks), so the
// communication structure — ghost-cell rows, tile meta-information — is
// identical to the distributed original while remaining runnable in a unit
// test.
//
// Messages transfer ownership: after Send returns, the sender must not
// mutate the payload. Senders therefore build each message in a fresh
// slice — a halo row is encoded into one (Halo.EncodeRow), a band is
// painted straight into one (GatherBands) — and never send a buffer
// they keep computing in. Recv carries a deadline so an incorrectly
// synchronized student program reports a deadlock instead of hanging the
// process — the runtime's watchdog stands in for a hung mpirun.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// DefaultRecvTimeout bounds how long a Recv waits before declaring the
// program deadlocked.
const DefaultRecvTimeout = 10 * time.Second

// ErrDeadlock is wrapped by errors returned from receives that timed out.
var ErrDeadlock = errors.New("mpi: deadlock suspected (receive timed out)")

// ErrCanceled is wrapped by errors returned from ranks interrupted by the
// world's context (alongside the context's own error, so callers can test
// errors.Is(err, context.Canceled) as well).
var ErrCanceled = errors.New("mpi: world canceled")

// AnyTag matches any message tag in Recv.
const AnyTag = -1

// AnySource matches any sender rank in Recv.
const AnySource = -1

// message is one in-flight message.
type message struct {
	src, tag int
	payload  any
}

// world is the shared state of a communicator group.
type world struct {
	size    int
	mu      sync.Mutex
	cond    *sync.Cond
	queues  [][]message // per-destination mailbox
	timeout time.Duration
	ctx     context.Context // cancels blocked receives and barriers

	// barrier state (central counter, phase-flipped)
	barWaiting int
	barPhase   uint64

	// net is non-nil for distributed worlds (net.go): only rank net.local
	// is in-process, sends to other ranks go through net.send, and
	// failures (transport errors, receive timeouts) are reported through
	// net.fail, which aborts the whole session.
	net *netHooks
}

// netHooks is the distributed-transport seam of a world.
type netHooks struct {
	local int
	send  func(dst, tag int, payload any) error
	fail  func(err error)
}

// Comm is one rank's view of the world — the handle kernels receive, like
// an MPI_Comm plus the rank.
type Comm struct {
	w       *world
	rank    int
	timeout time.Duration // per-Comm watchdog override; 0 = world default
}

// Rank returns the caller's process rank (MPI_Comm_rank).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks (MPI_Comm_size).
func (c *Comm) Size() int { return c.w.size }

// SetRecvTimeout overrides the deadlock watchdog delay for this rank's
// subsequent receives; d <= 0 restores the world default. A serving
// frontend uses a short per-Comm deadline so a wedged student program is
// reported (and its job failed) in milliseconds instead of the default
// 10 s watchdog.
func (c *Comm) SetRecvTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeout = d
}

// recvTimeout returns the effective watchdog delay for this Comm.
func (c *Comm) recvTimeout() time.Duration {
	if c.timeout > 0 {
		return c.timeout
	}
	return c.w.timeout
}

// Config adjusts the runtime.
type Config struct {
	// RecvTimeout overrides the deadlock watchdog delay; zero keeps
	// DefaultRecvTimeout. Individual ranks can further override it with
	// Comm.SetRecvTimeout.
	RecvTimeout time.Duration
}

// Run launches np ranks, each executing fn with its own Comm, and waits for
// all of them. A rank returning an error or panicking aborts the report
// (all ranks are still joined); the first error is returned, wrapped with
// its rank.
func Run(np int, fn func(c *Comm) error) error {
	return RunContext(context.Background(), np, Config{}, fn)
}

// RunConfig is Run with explicit configuration.
func RunConfig(np int, cfg Config, fn func(c *Comm) error) error {
	return RunContext(context.Background(), np, cfg, fn)
}

// RunContext is RunConfig with cancellation: when ctx is canceled, every
// rank blocked in Recv (or a collective built on it, or Barrier) wakes up
// immediately and returns an error wrapping both ErrCanceled and the
// context's error. Ranks that never block must observe the context
// themselves — the runtime can only interrupt communication.
func RunContext(ctx context.Context, np int, cfg Config, fn func(c *Comm) error) error {
	if np <= 0 {
		return fmt.Errorf("mpi: invalid process count %d", np)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := &world{
		size:    np,
		queues:  make([][]message, np),
		timeout: cfg.RecvTimeout,
		ctx:     ctx,
	}
	if w.timeout <= 0 {
		w.timeout = DefaultRecvTimeout
	}
	w.cond = sync.NewCond(&w.mu)

	// The watcher turns a context cancellation into a condvar broadcast so
	// blocked ranks recheck ctx.Err(); it exits when the world completes.
	if ctx.Done() != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				w.mu.Lock()
				w.cond.Broadcast()
				w.mu.Unlock()
			case <-stop:
			}
		}()
	}

	errs := make([]error, np)
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					// Wake any rank blocked on a receive from us.
					w.mu.Lock()
					w.cond.Broadcast()
					w.mu.Unlock()
				}
			}()
			if err := fn(&Comm{w: w, rank: rank}); err != nil {
				errs[rank] = fmt.Errorf("mpi: rank %d: %w", rank, err)
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Send delivers payload to rank dst with the given tag (MPI_Send). Sends
// are buffered and never block. Sending to self is allowed (matched by a
// later Recv), sending to an invalid rank is an error.
func (c *Comm) Send(dst, tag int, payload any) error {
	if dst < 0 || dst >= c.w.size {
		return fmt.Errorf("mpi: rank %d: send to invalid rank %d", c.rank, dst)
	}
	if c.w.net != nil && dst != c.w.net.local {
		// Distributed world: the payload crosses an address space. The
		// transport may block briefly (synchronous HTTP) but never
		// deadlocks — the receiving side enqueues without waiting.
		return c.w.net.send(dst, tag, payload)
	}
	c.w.mu.Lock()
	c.w.queues[dst] = append(c.w.queues[dst], message{src: c.rank, tag: tag, payload: payload})
	c.w.cond.Broadcast()
	c.w.mu.Unlock()
	return nil
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload and actual source (MPI_Recv). src may be AnySource
// and tag may be AnyTag. Messages from the same sender with the same tag
// are received in send order (the MPI non-overtaking guarantee). A
// canceled world context interrupts the wait immediately; otherwise the
// per-Comm watchdog (SetRecvTimeout, defaulting to the world's
// RecvTimeout) bounds it.
func (c *Comm) Recv(src, tag int) (payload any, from int, err error) {
	timeout := c.recvTimeout()
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		c.w.mu.Lock()
		c.w.cond.Broadcast()
		c.w.mu.Unlock()
	})
	defer timer.Stop()

	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	for {
		if cerr := c.w.ctx.Err(); cerr != nil {
			return nil, -1, fmt.Errorf("%w: rank %d receive interrupted: %w", ErrCanceled, c.rank, cerr)
		}
		q := c.w.queues[c.rank]
		for i, m := range q {
			if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
				c.w.queues[c.rank] = append(q[:i:i], q[i+1:]...)
				return m.payload, m.src, nil
			}
		}
		if time.Now().After(deadline) {
			err := fmt.Errorf("%w: rank %d waiting for src=%d tag=%d after %v",
				ErrDeadlock, c.rank, src, tag, timeout)
			if c.w.net != nil {
				// On a distributed world a silent peer means a dead or
				// partitioned node, not a student deadlock: abort the whole
				// session so no shard keeps waiting.
				c.w.net.fail(err)
			}
			return nil, -1, err
		}
		c.w.cond.Wait()
	}
}

// Barrier blocks until every rank has entered it (MPI_Barrier). When the
// world context is canceled while waiting, Barrier panics with a
// descriptive message: the barrier protocol cannot complete (and has no
// error return), and the rank wrapper in Run recovers the panic into the
// rank's error.
func (c *Comm) Barrier() {
	if c.w.net != nil {
		// The central-counter protocol needs every rank in-process; a
		// distributed barrier would be built on Send/Recv like the other
		// collectives. No kernel uses Barrier across nodes today.
		panic("mpi: Barrier is not supported on a distributed world")
	}
	c.w.mu.Lock()
	phase := c.w.barPhase
	c.w.barWaiting++
	if c.w.barWaiting == c.w.size {
		c.w.barWaiting = 0
		c.w.barPhase++
		c.w.cond.Broadcast()
		c.w.mu.Unlock()
		return
	}
	for phase == c.w.barPhase {
		if cerr := c.w.ctx.Err(); cerr != nil {
			// Undo our registration so a broadcast cannot release a future
			// phase with a stale count.
			c.w.barWaiting--
			c.w.mu.Unlock()
			panic(fmt.Sprintf("mpi: rank %d barrier interrupted: %v", c.rank, cerr))
		}
		c.w.cond.Wait()
	}
	c.w.mu.Unlock()
}

// collective tags live in a reserved negative range so they never collide
// with user tags.
const (
	tagBcast  = -100
	tagGather = -101
	tagReduce = -102
)

// Bcast broadcasts root's payload to every rank and returns it
// (MPI_Bcast). Every rank must call it; non-root ranks pass nil (their
// argument is ignored).
func (c *Comm) Bcast(root int, payload any) (any, error) {
	if root < 0 || root >= c.w.size {
		return nil, fmt.Errorf("mpi: invalid root %d", root)
	}
	if c.rank == root {
		for r := 0; r < c.w.size; r++ {
			if r != root {
				if err := c.Send(r, tagBcast, payload); err != nil {
					return nil, err
				}
			}
		}
		return payload, nil
	}
	got, _, err := c.Recv(root, tagBcast)
	return got, err
}

// Gather collects every rank's payload at root; root receives a slice
// indexed by rank, other ranks receive nil (MPI_Gather).
func (c *Comm) Gather(root int, payload any) ([]any, error) {
	if root < 0 || root >= c.w.size {
		return nil, fmt.Errorf("mpi: invalid root %d", root)
	}
	if c.rank != root {
		return nil, c.Send(root, tagGather, payload)
	}
	out := make([]any, c.w.size)
	out[root] = payload
	for i := 0; i < c.w.size-1; i++ {
		got, from, err := c.Recv(AnySource, tagGather)
		if err != nil {
			return nil, err
		}
		out[from] = got
	}
	return out, nil
}

// Reduce folds every rank's payload at root with op (MPI_Reduce). op must
// be associative and commutative; it is applied in rank order at root.
// Non-root ranks receive nil.
func (c *Comm) Reduce(root int, payload any, op func(a, b any) any) (any, error) {
	vals, err := c.Gather(root, payload)
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = op(acc, v)
	}
	return acc, nil
}

// Allreduce is Reduce followed by Bcast: every rank receives the folded
// value (MPI_Allreduce).
func (c *Comm) Allreduce(payload any, op func(a, b any) any) (any, error) {
	red, err := c.Reduce(0, payload, op)
	if err != nil {
		return nil, err
	}
	return c.Bcast(0, red)
}

// AllreduceBool is Allreduce specialized for the "is anybody still
// changing?" convergence votes EASYPAP kernels take (logical OR).
func (c *Comm) AllreduceBool(local bool) (bool, error) {
	v, err := c.Allreduce(local, func(a, b any) any { return a.(bool) || b.(bool) })
	if err != nil {
		return false, err
	}
	return v.(bool), nil
}

// AllreduceInt sums an int across ranks.
func (c *Comm) AllreduceInt(local int) (int, error) {
	v, err := c.Allreduce(local, func(a, b any) any { return a.(int) + b.(int) })
	if err != nil {
		return 0, err
	}
	return v.(int), nil
}
