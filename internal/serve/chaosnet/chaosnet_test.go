package chaosnet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func get(t *testing.T, c *http.Client, url string, origin string) (*http.Response, error) {
	t.Helper()
	ctx := context.Background()
	if origin != "" {
		ctx = WithOrigin(ctx, origin)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.Do(req)
}

func TestKillAndRevive(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	tr := New(1, nil)
	client := &http.Client{Transport: tr}

	if resp, err := get(t, client, srv.URL, ""); err != nil {
		t.Fatalf("before kill: %v", err)
	} else {
		resp.Body.Close()
	}
	tr.Kill(host)
	if _, err := get(t, client, srv.URL, ""); err == nil {
		t.Fatal("killed host served a request")
	}
	tr.Revive(host)
	if resp, err := get(t, client, srv.URL, ""); err != nil {
		t.Fatalf("after revive: %v", err)
	} else {
		resp.Body.Close()
	}
	if tr.Faults() != 1 {
		t.Fatalf("faults = %d, want 1", tr.Faults())
	}
}

func TestKillPathCutsOneRoute(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	tr := New(1, nil)
	client := &http.Client{Transport: tr}
	tr.KillPath(host, "/v1/jobs")
	if _, err := get(t, client, srv.URL+"/v1/jobs", ""); err == nil {
		t.Fatal("killed path served a request")
	}
	for _, path := range []string{"/v1/jobs/j-000001", "/v1/cluster/gossip", "/"} {
		if resp, err := get(t, client, srv.URL+path, ""); err != nil {
			t.Fatalf("%s blocked by a kill of another path: %v", path, err)
		} else {
			resp.Body.Close()
		}
	}
	if tr.Faults() != 1 {
		t.Fatalf("faults = %d, want 1", tr.Faults())
	}
}

func TestPartitionIsPairwise(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	tr := New(2, nil)
	client := &http.Client{Transport: tr}
	tr.Partition("nodeA", host)

	if _, err := get(t, client, srv.URL, "nodeA"); err == nil {
		t.Fatal("partitioned pair exchanged a request")
	}
	// A different origin crosses fine, as does an origin-less request.
	if resp, err := get(t, client, srv.URL, "nodeB"); err != nil {
		t.Fatalf("unpartitioned origin blocked: %v", err)
	} else {
		resp.Body.Close()
	}
	if resp, err := get(t, client, srv.URL, ""); err != nil {
		t.Fatalf("origin-less request blocked: %v", err)
	} else {
		resp.Body.Close()
	}
	tr.Heal("nodeA", host)
	if resp, err := get(t, client, srv.URL, "nodeA"); err != nil {
		t.Fatalf("healed pair still blocked: %v", err)
	} else {
		resp.Body.Close()
	}
}

// TestDropDeterminism pins the reproducibility contract: the same seed
// and the same request sequence produce the same fault pattern.
func TestDropDeterminism(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	pattern := func(seed uint64) []bool {
		tr := New(seed, nil)
		tr.Drop(host, 0.5)
		client := &http.Client{Transport: tr}
		var out []bool
		for i := 0; i < 32; i++ {
			resp, err := get(t, client, srv.URL, "")
			if err == nil {
				resp.Body.Close()
			}
			out = append(out, err == nil)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %v vs %v", i, a, b)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 32-request patterns (suspicious)")
	}
}

func TestDuplicateSendsTwice(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	tr := New(3, nil)
	tr.Duplicate(host, 1.0)
	client := &http.Client{Transport: tr}
	resp, err := get(t, client, srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hits.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2 (original + duplicate)", hits.Load())
	}
}

func TestDelayAddsLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	tr := New(4, nil)
	tr.Delay(host, 50*time.Millisecond)
	client := &http.Client{Transport: tr}
	start := time.Now()
	resp, err := get(t, client, srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("request took %v, want >= 50ms", d)
	}
}

func TestScheduleFiresInOrder(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	tr := New(5, nil)
	client := &http.Client{Transport: tr}
	stop := Schedule(tr, []Step{
		{After: 0, Do: func(t *Transport) { t.Kill(host) }},
		{After: 60 * time.Millisecond, Do: func(t *Transport) { t.Revive(host) }},
	})
	defer stop()

	time.Sleep(20 * time.Millisecond)
	if _, err := get(t, client, srv.URL, ""); err == nil {
		t.Fatal("schedule did not kill the host")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := get(t, client, srv.URL, "")
		if err == nil {
			resp.Body.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("schedule never revived the host")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
