//go:build race

package kernels

// raceEnabled reports a -race build: its sync.Pool drops a share of the
// buffers put back on purpose, so allocation figures mean nothing there.
const raceEnabled = true
