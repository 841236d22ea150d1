package incremental

import "casc/internal/metrics"

// Metric names recorded by the incremental engine.
const (
	// MetricRounds counts engine rounds (one BeginRound..Commit cycle).
	MetricRounds = "casc_incremental_rounds_total"
	// MetricComponentsCarried counts clean components whose previous
	// assignment was carried forward without re-solving.
	MetricComponentsCarried = "casc_incremental_components_carried_total"
	// MetricComponentsResolved counts dirty components re-solved this round.
	MetricComponentsResolved = "casc_incremental_components_resolved_total"
	// MetricEdges gauges the live candidate-edge count (active and gated).
	MetricEdges = "casc_incremental_edges"
	// MetricEdgesAdded counts candidate edges discovered on entity arrival.
	MetricEdgesAdded = "casc_incremental_edges_added_total"
	// MetricEdgesDropped counts candidate edges dropped permanently (slack
	// passed travel time) or by endpoint removal.
	MetricEdgesDropped = "casc_incremental_edges_dropped_total"
	// MetricPrewarmHits counts task arrivals whose candidate discovery was
	// served from a predictor-prebuilt cell list instead of a grid query.
	MetricPrewarmHits = "casc_incremental_prewarm_hits_total"
	// MetricPrewarmMisses counts task arrivals that fell back to a grid
	// query (cold or invalidated cell).
	MetricPrewarmMisses = "casc_incremental_prewarm_misses_total"
	// MetricWarmEntries gauges the TPG warm-start cache's entries after
	// each Commit's prune.
	MetricWarmEntries = "casc_incremental_warm_entries"
)

// engineMetrics resolves the engine's metric handles once at construction.
type engineMetrics struct {
	rounds        *metrics.Counter
	carried       *metrics.Counter
	resolved      *metrics.Counter
	edges         *metrics.Gauge
	edgesAdded    *metrics.Counter
	edgesDropped  *metrics.Counter
	prewarmHits   *metrics.Counter
	prewarmMisses *metrics.Counter
	warmEntries   *metrics.Gauge
}

func newEngineMetrics(reg *metrics.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		rounds:        reg.Counter(MetricRounds, "Incremental engine rounds."),
		carried:       reg.Counter(MetricComponentsCarried, "Clean components carried forward without re-solving."),
		resolved:      reg.Counter(MetricComponentsResolved, "Dirty components re-solved."),
		edges:         reg.Gauge(MetricEdges, "Live candidate edges (active and time-gated)."),
		edgesAdded:    reg.Counter(MetricEdgesAdded, "Candidate edges discovered on arrival."),
		edgesDropped:  reg.Counter(MetricEdgesDropped, "Candidate edges dropped (deadline passed travel time or endpoint removed)."),
		prewarmHits:   reg.Counter(MetricPrewarmHits, "Task arrivals served from predictor-prebuilt cell lists."),
		prewarmMisses: reg.Counter(MetricPrewarmMisses, "Task arrivals that fell back to a grid query."),
		warmEntries:   reg.Gauge(MetricWarmEntries, "TPG warm-start cache entries after the round's prune."),
	}
}
