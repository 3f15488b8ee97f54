package flow

// CongestionModel maps the offered load on a link and the number of flows
// multiplexed over it to the fraction of nominal capacity the link actually
// delivers.
type CongestionModel interface {
	// AchievedFraction returns the delivered throughput as a fraction of
	// nominal capacity, given offered load (demand/capacity, may exceed 1)
	// and the number of concurrent flows on the link.
	AchievedFraction(load float64, flows int) float64
}

// SCIRingCongestion reproduces the saturation behaviour of a single SCI
// ringlet as measured in the paper's Table 2 ("Scalability for different
// segment utilization levels").
//
// The table provides, for a segment utilization of 8 transfers, pairs of
// (ring load, achieved efficiency):
//
//	load 0.763 -> 0.763   (4 nodes, essentially loss-free)
//	load 0.953 -> 0.915   (5 nodes, congestion onset before saturation)
//	load 1.144 -> 0.927   (6 nodes, peak efficiency)
//	load 1.335 -> 0.877   (7 nodes)
//	load 1.525 -> 0.793   (8 nodes, retries and flow-control echoes)
//
// With one transfer per segment, the per-node bandwidth stays constant
// (no sharing), i.e. efficiency equals offered load with no loss. Figure 12
// (segment utilization 4) shows milder degradation (71.8 MiB/s per node at
// 8 nodes instead of 62.78). We therefore blend linearly, by multiplexing
// degree, between the ideal curve (utilization 1) and the calibrated
// utilization-8 curve.
type SCIRingCongestion struct{}

// util8Curve is the calibrated (load, achieved fraction) table for a segment
// utilization of 8 concurrent transfers.
var util8Curve = [][2]float64{
	{0.000, 0.000},
	{0.763, 0.763},
	{0.953, 0.915},
	{1.144, 0.927},
	{1.335, 0.877},
	{1.525, 0.793},
	{2.500, 0.650}, // extrapolated congestion floor
}

// AchievedFraction implements CongestionModel.
func (SCIRingCongestion) AchievedFraction(load float64, flows int) float64 {
	ideal := load
	if ideal > 1 {
		ideal = 1
	}
	if flows <= 1 {
		return ideal
	}
	high := interpCurve(util8Curve, load)
	blend := float64(flows-1) / 7.0
	if blend > 1 {
		blend = 1
	}
	return ideal + float64(blend*(high-ideal))
}

// interpCurve linearly interpolates y for x over a sorted (x, y) table,
// clamping outside the table range.
func interpCurve(curve [][2]float64, x float64) float64 {
	if x <= curve[0][0] {
		return curve[0][1]
	}
	last := curve[len(curve)-1]
	if x >= last[0] {
		return last[1]
	}
	for i := 1; i < len(curve); i++ {
		if x <= curve[i][0] {
			x0, y0 := curve[i-1][0], curve[i-1][1]
			x1, y1 := curve[i][0], curve[i][1]
			t := (x - x0) / (x1 - x0)
			return y0 + float64(t*(y1-y0))
		}
	}
	return last[1]
}

// BusCongestion models a shared memory bus or backplane whose efficiency
// declines as more processors contend for it. It is used by the comparator
// platform models (e.g. the 4-way Xeon SMP in Figure 12 whose "inferior
// memory system design" scales badly for coarse-grained accesses).
type BusCongestion struct {
	// PerFlowPenalty is the fractional capacity lost per additional
	// concurrent flow beyond the first (e.g. 0.08 = 8% per extra flow).
	PerFlowPenalty float64
	// Floor is the minimum fraction of capacity retained under any load.
	Floor float64
}

// AchievedFraction implements CongestionModel.
func (b BusCongestion) AchievedFraction(load float64, flows int) float64 {
	ideal := load
	if ideal > 1 {
		ideal = 1
	}
	penalty := 1 - float64(b.PerFlowPenalty*float64(flows-1))
	if penalty < b.Floor {
		penalty = b.Floor
	}
	got := ideal * penalty
	return got
}
