package sci

import (
	"time"

	"scimpich/internal/sim"
)

// faultInjector models transmission errors on the SCI cabling: a transfer
// occasionally fails its CRC/sequence check and must be retried, adding
// latency. The paper's point is that SCI "is still a network in which
// single nodes may fail or physical connections may be disturbed", so a
// connection monitoring and transfer checking layer is mandatory; our MPI
// device must deliver exactly-once regardless of injected retries, which
// the fault tests assert.
//
// Randomness comes from a SplitMix64 PRNG seeded from the configuration, so
// fault schedules are fully deterministic.
type faultInjector struct {
	rate    float64
	latency time.Duration
	state   uint64
}

// maxRetryRate caps the retransmit probability: a rate at or above 1.0
// would make every trial fail and spin maybeRetry forever.
const maxRetryRate = 0.95

// maxConsecutiveRetries bounds the retransmit storm of one transfer even
// under an (already clamped) extreme rate: a real adapter gives up and
// reports the error long before this.
const maxConsecutiveRetries = 8

func newFaultInjector(rate float64, latency time.Duration, seed uint64) *faultInjector {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	if rate > maxRetryRate {
		rate = maxRetryRate
	}
	return &faultInjector{rate: rate, latency: latency, state: seed}
}

// next returns a uniform float64 in [0, 1).
func (fi *faultInjector) next() float64 {
	fi.state += 0x9e3779b97f4a7c15
	z := fi.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// maybeRetry injects a retry delay with the configured probability,
// possibly several times in a row (independent trials, capped so a
// pathological rate cannot stall a transfer forever).
func (fi *faultInjector) maybeRetry(p *sim.Proc, stats *Stats) {
	if fi.rate <= 0 {
		return
	}
	for i := 0; i < maxConsecutiveRetries && fi.next() < fi.rate; i++ {
		stats.Retries++
		p.Sleep(fi.latency)
	}
}
