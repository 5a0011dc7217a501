package main

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
)

// TestRunBindsBeforeOpeningStore: a daemon whose port is taken fails
// with the listen error before it touches anything else — the data
// directory is never created, no journal is recovered and no cluster
// prober starts.
func TestRunBindsBeforeOpeningStore(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	dir := filepath.Join(t.TempDir(), "data")

	err = run([]string{"-addr", addr, "-data-dir", dir, "-self", "http://" + addr})
	var opErr *net.OpError
	if !errors.As(err, &opErr) || opErr.Op != "listen" {
		t.Fatalf("run on a taken port = %v, want the listen error", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("data dir exists after a failed bind (stat: %v)", err)
	}
}
