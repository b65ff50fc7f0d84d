package main

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// namePattern is the shape every metric and workload name must have.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitPattern is the shape every unit must have.
var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validName reports whether s may name a metric or a workload.
func validName(s string) bool { return namePattern.MatchString(s) }

// validUnit reports whether s may be a metric unit.
func validUnit(s string) bool { return unitPattern.MatchString(s) }

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailCount returns how many of n sorted samples lie strictly beyond the
// q-quantile's rank.
func tailCount(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// percentile returns the q-quantile of xs (nearest rank), and false when
// fewer than minTail samples lie beyond it: a p99 needs 1000 samples, a
// p50 needs 20. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 || q < 0 || q > 1 || tailCount(len(xs), q) < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], true
}

// median returns the middle of xs (mean of the two middle values for an
// even count); NaN when empty. Unlike percentile it needs no tail: a
// run's median over a handful of solves is what the benchmark reports.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts operations. Every operation the benchmark starts is
// recorded exactly once, failed or not; failures are never retried or
// dropped.
type tally struct {
	attempted int
	failed    int
	reasons   []string // first few failure reasons, for the report
}

// record counts one operation whose check returned err (nil = passed).
func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, err.Error())
	}
}

// failRate is failed operations divided by attempted operations.
func (t *tally) failRate() (float64, error) {
	if t.attempted == 0 {
		return 0, errors.New("no operation attempted")
	}
	return float64(t.failed) / float64(t.attempted), nil
}

// phaseWalls are one traced solve's summed phase wall-clock times, as
// the engine's flight recorder reports them, and the summed Step span
// measured around the engine from outside.
type phaseWalls struct {
	activate, deliver, merge, flush time.Duration
	step                            time.Duration
}

// unattributed is the part of the Step span no recorded phase accounts
// for (pool rebalance, keepalive fold, instrument overhead).
func (p phaseWalls) unattributed() time.Duration {
	return p.step - p.activate - p.deliver - p.merge - p.flush
}

// perRoundMs converts a summed duration to milliseconds per round.
func perRoundMs(d time.Duration, rounds int) float64 {
	if rounds == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e6 / float64(rounds)
}

// checkFinite reports the first non-finite value of xs.
func checkFinite(what string, xs []float64) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%s[%d] = %v is not finite", what, i, x)
		}
	}
	return nil
}
