package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestRunInvalidSize(t *testing.T) {
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Error("Run(0) succeeded")
	}
	if err := Run(-2, func(*Comm) error { return nil }); err == nil {
		t.Error("Run(-2) succeeded")
	}
}

func TestRankAndSize(t *testing.T) {
	var seen [4]atomic.Int32
	err := Run(4, func(c *Comm) error {
		if c.Size() != 4 {
			return fmt.Errorf("size = %d", c.Size())
		}
		seen[c.Rank()].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range seen {
		if seen[r].Load() != 1 {
			t.Errorf("rank %d ran %d times", r, seen[r].Load())
		}
	}
}

func TestPingPong(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, "ping"); err != nil {
				return err
			}
			got, from, err := c.Recv(1, 8)
			if err != nil {
				return err
			}
			if got.(string) != "pong" || from != 1 {
				return fmt.Errorf("got %v from %d", got, from)
			}
			return nil
		}
		got, _, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if got.(string) != "ping" {
			return fmt.Errorf("got %v", got)
		}
		return c.Send(0, 8, "pong")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(5, 0, nil); err == nil {
				return fmt.Errorf("send to rank 5 succeeded")
			}
			if err := c.Send(-1, 0, nil); err == nil {
				return fmt.Errorf("send to rank -1 succeeded")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertaking(t *testing.T) {
	// Same sender, same tag: messages arrive in send order.
	err := Run(2, func(c *Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, _, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if got.(int) != i {
				return fmt.Errorf("message %d arrived as %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	// A receiver waiting on tag B must not consume an earlier tag-A
	// message.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, "first-tagA"); err != nil {
				return err
			}
			return c.Send(1, 2, "tagB")
		}
		got, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if got.(string) != "tagB" {
			return fmt.Errorf("tag 2 recv got %v", got)
		}
		got, _, err = c.Recv(0, 1)
		if err != nil {
			return err
		}
		if got.(string) != "first-tagA" {
			return fmt.Errorf("tag 1 recv got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				got, from, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				seen[from] = true
				if got.(int) != from*10 {
					return fmt.Errorf("payload %v from %d", got, from)
				}
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("sources seen: %v", seen)
			}
			return nil
		}
		return c.Send(0, c.Rank(), c.Rank()*10)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := c.Send(0, 5, 42); err != nil {
			return err
		}
		got, from, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if got.(int) != 42 || from != 0 {
			return fmt.Errorf("self-send got %v from %d", got, from)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockWatchdog(t *testing.T) {
	start := time.Now()
	err := RunConfig(2, Config{RecvTimeout: 50 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 0 {
			_, _, err := c.Recv(1, 9) // rank 1 never sends
			return err
		}
		return nil
	})
	if err == nil {
		t.Fatal("deadlocked program returned no error")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("error %v does not wrap ErrDeadlock", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("watchdog took far longer than the configured timeout")
	}
}

func TestRankPanicIsReported(t *testing.T) {
	err := RunConfig(2, Config{RecvTimeout: 100 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Errorf("panic not reported: %v", err)
	}
}

func TestRankErrorWrapped(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("rank error not wrapped: %v", err)
	}
	if !contains(err.Error(), "rank 2") {
		t.Errorf("error does not name the rank: %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestBarrierSynchronizes(t *testing.T) {
	const np, rounds = 5, 30
	var counter atomic.Int32
	var bad atomic.Int32
	err := Run(np, func(c *Comm) error {
		for r := 0; r < rounds; r++ {
			counter.Add(1)
			c.Barrier()
			if counter.Load() != int32((r+1)*np) {
				bad.Add(1)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Errorf("%d barrier violations", bad.Load())
	}
}

func TestBcast(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		var in any
		if c.Rank() == 2 {
			in = "hello from 2"
		}
		got, err := c.Bcast(2, in)
		if err != nil {
			return err
		}
		if got.(string) != "hello from 2" {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if _, err := c.Bcast(7, nil); err == nil {
			return fmt.Errorf("invalid root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		vals, err := c.Gather(0, c.Rank()*c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if vals != nil {
				return fmt.Errorf("non-root got %v", vals)
			}
			return nil
		}
		for r, v := range vals {
			if v.(int) != r*r {
				return fmt.Errorf("vals[%d] = %v", r, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		sum, err := c.AllreduceInt(c.Rank() + 1)
		if err != nil {
			return err
		}
		if sum != 15 { // 1+2+3+4+5
			return fmt.Errorf("rank %d allreduce sum = %d", c.Rank(), sum)
		}
		anyTrue, err := c.AllreduceBool(c.Rank() == 3)
		if err != nil {
			return err
		}
		if !anyTrue {
			return fmt.Errorf("allreduce OR missed the true vote")
		}
		allFalse, err := c.AllreduceBool(false)
		if err != nil {
			return err
		}
		if allFalse {
			return fmt.Errorf("allreduce OR fabricated a true")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBandForPartition(t *testing.T) {
	f := func(dimRaw uint16, sizeRaw uint8) bool {
		dim := int(dimRaw%1000) + 1
		size := int(sizeRaw%8) + 1
		prev := 0
		for r := 0; r < size; r++ {
			b := BandFor(dim, size, r)
			if b.Lo != prev || b.Hi < b.Lo {
				return false
			}
			prev = b.Hi
		}
		return prev == dim
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGatherBands(t *testing.T) {
	const dim, np = 12, 3
	err := Run(np, func(c *Comm) error {
		band := BandFor(dim, np, c.Rank())
		var full []uint32
		if c.Rank() == 0 {
			full = make([]uint32, dim*dim)
		}
		painted := 0
		err := c.GatherBands(0, band, full, func(dst []uint32) {
			painted++
			if len(dst) != band.Rows()*dim {
				t.Errorf("rank %d painted %d pixels, want %d", c.Rank(), len(dst), band.Rows()*dim)
			}
			for i := range dst {
				dst[i] = uint32(c.Rank() + 1)
			}
		})
		if err != nil {
			return err
		}
		if painted != 1 {
			return fmt.Errorf("rank %d painted %d times", c.Rank(), painted)
		}
		if c.Rank() != 0 {
			return nil
		}
		for r := 0; r < np; r++ {
			rb := BandFor(dim, np, r)
			for row := rb.Lo; row < rb.Hi; row++ {
				if full[row*dim] != uint32(r+1) || full[row*dim+dim-1] != uint32(r+1) {
					return fmt.Errorf("row %d owned by %d, got %d", row, r+1, full[row*dim])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherBandsValidatesSize(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		band := BandFor(8, 2, c.Rank())
		if c.Rank() == 0 {
			err := c.GatherBands(0, band, make([]uint32, 3), func([]uint32) {}) // wrong size
			if err == nil {
				return fmt.Errorf("malformed image accepted")
			}
			return nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRandomTraffic stress-tests the mailbox under randomized all-to-all
// communication.
func TestRandomTraffic(t *testing.T) {
	const np, msgs = 6, 60
	err := Run(np, func(c *Comm) error {
		rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
		// Everyone sends msgs messages to random peers with tag 1,
		// then receives exactly its incoming count via a gather of counts.
		sent := make([]int, np)
		for i := 0; i < msgs; i++ {
			dst := rng.Intn(np)
			if err := c.Send(dst, 1, c.Rank()); err != nil {
				return err
			}
			sent[dst]++
		}
		// Share the send matrix so each rank knows how many to expect.
		all, err := c.Gather(0, sent)
		if err != nil {
			return err
		}
		var expect any
		if c.Rank() == 0 {
			incoming := make([]int, np)
			for _, row := range all {
				for dst, n := range row.([]int) {
					incoming[dst] += n
				}
			}
			expect = incoming
		}
		got, err := c.Bcast(0, expect)
		if err != nil {
			return err
		}
		mine := got.([]int)[c.Rank()]
		for i := 0; i < mine; i++ {
			if _, _, err := c.Recv(AnySource, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPingPong(b *testing.B) {
	b.ReportAllocs()
	err := Run(2, func(c *Comm) error {
		other := 1 - c.Rank()
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				if err := c.Send(other, 1, i); err != nil {
					return err
				}
				if _, _, err := c.Recv(other, 2); err != nil {
					return err
				}
			} else {
				if _, _, err := c.Recv(other, 1); err != nil {
					return err
				}
				if err := c.Send(other, 2, i); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
