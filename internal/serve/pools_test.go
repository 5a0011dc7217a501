package serve

import "testing"

// TestWarmPoolOptions: a zero MaxIdlePools keeps the default warm set,
// so the second job of a thread count leases the first job's pool warm;
// only DisableWarmPools makes every lease cold.
func TestWarmPoolOptions(t *testing.T) {
	for _, tc := range []struct {
		name       string
		opts       Options
		warm, cold int64
	}{
		{"MaxIdlePools=0", Options{Workers: 1, MaxIdlePools: 0}, 1, 1},
		{"DisableWarmPools", Options{Workers: 1, DisableWarmPools: true}, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManager(tc.opts)
			defer m.Close()
			submitWait(t, m, testCfg(32))
			submitWait(t, m, testCfg(64))
			if st := m.Stats(); st.PoolWarmLeases != tc.warm || st.PoolColdLeases != tc.cold {
				t.Fatalf("warm/cold leases = %d/%d, want %d/%d",
					st.PoolWarmLeases, st.PoolColdLeases, tc.warm, tc.cold)
			}
		})
	}
}
