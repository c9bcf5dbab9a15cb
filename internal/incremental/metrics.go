package incremental

import "graphalign/internal/obsv"

// PreRegisterMetrics creates every incr_* series in reg at zero. The obsv
// registry materializes metrics on first use, so a scraper watching /metrics
// would otherwise not see the incremental counters until the first session
// runs — and rate() over a counter that appears only on its first increment
// misses the initial transition. Long-running processes that may host
// sessions (alignd) call this once at startup.
func PreRegisterMetrics(reg *obsv.Registry) {
	for _, name := range []string{
		"incr_sessions_total",
		"incr_applies_total",
		"incr_noop_total",
		"incr_cold_fallbacks_total",
	} {
		reg.Counter(name)
	}
	for _, name := range []string{
		"incr_dirty_rows",
		"incr_rescan_rows",
		"incr_dirty_cols",
		"incr_rebid_rounds",
		"incr_augmented_rows",
	} {
		reg.Histogram(name, obsv.SizeBuckets())
	}
}
