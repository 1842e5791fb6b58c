package popularity

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

func req(node byte, c string, typ wire.EntryType) trace.Entry {
	var id simnet.NodeID
	id[0] = node
	return trace.Entry{
		Timestamp: t0,
		Monitor:   "us",
		NodeID:    id,
		Type:      typ,
		CID:       cid.Sum(cid.Raw, []byte(c)),
	}
}

func TestComputeScores(t *testing.T) {
	entries := []trace.Entry{
		req(1, "a", wire.WantHave),
		req(1, "a", wire.WantHave), // same peer again: RRP+1, URP same
		req(2, "a", wire.WantHave), // second peer
		req(3, "b", wire.WantBlock),
		req(3, "b", wire.Cancel), // cancels don't count
	}
	s := Compute(entries)
	ca := cid.Sum(cid.Raw, []byte("a"))
	cb := cid.Sum(cid.Raw, []byte("b"))
	if s.RRP[ca] != 3 || s.URP[ca] != 2 {
		t.Errorf("a: rrp=%d urp=%d, want 3, 2", s.RRP[ca], s.URP[ca])
	}
	if s.RRP[cb] != 1 || s.URP[cb] != 1 {
		t.Errorf("b: rrp=%d urp=%d, want 1, 1", s.RRP[cb], s.URP[cb])
	}
}

// TestCounterMatchesBatch: the incremental Counter agrees with the batch
// Compute on a randomized entry stream.
func TestCounterMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var entries []trace.Entry
	for i := 0; i < 2000; i++ {
		entries = append(entries, req(byte(rng.Intn(40)),
			string(rune('a'+rng.Intn(25))), wire.EntryType(rng.Intn(3)+1)))
	}
	want := Compute(entries)
	c := NewCounter()
	for _, e := range entries {
		if err := c.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Scores()
	if len(got.RRP) != len(want.RRP) || len(got.URP) != len(want.URP) {
		t.Fatalf("sizes: got %d/%d want %d/%d", len(got.RRP), len(got.URP), len(want.RRP), len(want.URP))
	}
	for k, v := range want.RRP {
		if got.RRP[k] != v {
			t.Errorf("rrp[%s] = %d, want %d", k, got.RRP[k], v)
		}
	}
	for k, v := range want.URP {
		if got.URP[k] != v {
			t.Errorf("urp[%s] = %d, want %d", k, got.URP[k], v)
		}
	}
	if c.CIDs() != len(want.RRP) {
		t.Errorf("CIDs() = %d, want %d", c.CIDs(), len(want.RRP))
	}
	// The snapshot is detached: further writes must not mutate it.
	before := got.RRP[cid.Sum(cid.Raw, []byte("a"))]
	c.Write(req(1, "a", wire.WantHave))
	if got.RRP[cid.Sum(cid.Raw, []byte("a"))] != before {
		t.Error("Scores snapshot mutated by later Write")
	}
}

func TestECDF(t *testing.T) {
	pts := ECDF([]int{1, 1, 1, 2, 5})
	if len(pts) != 3 {
		t.Fatalf("ecdf points = %d", len(pts))
	}
	if pts[0].Value != 1 || math.Abs(pts[0].Prob-0.6) > 1e-12 {
		t.Errorf("p(<=1) = %v", pts[0])
	}
	if pts[2].Value != 5 || pts[2].Prob != 1 {
		t.Errorf("last point = %v", pts[2])
	}
	if ECDF(nil) != nil {
		t.Error("empty ECDF should be nil")
	}
}

func TestShareWithValue(t *testing.T) {
	vals := []int{1, 1, 1, 1, 2, 3, 9, 1}
	if got := ShareWithValue(vals, 1); math.Abs(got-5.0/8) > 1e-12 {
		t.Errorf("share = %v", got)
	}
	if ShareWithValue(nil, 1) != 0 {
		t.Error("empty share should be 0")
	}
}

func genPowerLaw(rng *rand.Rand, n, xmin int, alpha float64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = samplePowerLaw(rng, xmin, alpha)
	}
	return out
}

func TestFitRecoversAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := genPowerLaw(rng, 20000, 1, 2.5)
	fit, err := FitPowerLaw(data)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-2.5) > 0.15 {
		t.Errorf("alpha = %v, want ~2.5", fit.Alpha)
	}
	if fit.Xmin > 5 {
		t.Errorf("xmin = %d, want small", fit.Xmin)
	}
}

func TestPowerLawAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := genPowerLaw(rng, 3000, 1, 2.2)
	rejected, _, p, err := RejectsPowerLaw(data, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rejected {
		t.Errorf("true power-law data rejected (p=%v)", p)
	}
}

// genLognormalMixture draws a distribution like the paper's: mostly ones
// plus a lognormal bulk — clearly not a power law once the sample is large
// enough.
func genLognormalMixture(rng *rand.Rand, n int) []int {
	data := make([]int, n)
	for i := range data {
		if rng.Float64() < 0.5 {
			data[i] = 1 + rng.Intn(3)
		} else {
			v := int(math.Exp(rng.NormFloat64()*0.5 + 2.5))
			if v < 1 {
				v = 1
			}
			data[i] = v
		}
	}
	return data
}

func TestPowerLawRejectedForLognormalMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := genLognormalMixture(rng, 20000)
	rejected, fit, p, err := RejectsPowerLaw(data, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !rejected {
		t.Errorf("lognormal mixture not rejected: p=%v fit=%+v", p, fit)
	}
}

// sequentialPValue is the bootstrap written as one loop: draw a synthetic
// dataset, refit it, count it, in that order.
func sequentialPValue(f PowerLawFit, values []int, iterations int, rng *rand.Rand) float64 {
	var body []int
	for _, v := range values {
		if v < f.Xmin {
			body = append(body, v)
		}
	}
	pTail := float64(f.NTail) / float64(len(values))
	exceed := 0
	for it := 0; it < iterations; it++ {
		synth := make([]int, len(values))
		for i := range synth {
			if len(body) == 0 || rng.Float64() < pTail {
				synth[i] = samplePowerLaw(rng, f.Xmin, f.Alpha)
			} else {
				synth[i] = body[rng.Intn(len(body))]
			}
		}
		if sf, err := FitPowerLaw(synth); err == nil && sf.KS >= f.KS {
			exceed++
		}
	}
	return float64(exceed) / float64(iterations)
}

// TestPValueIndependentOfGOMAXPROCS: the parallel refits give exactly the
// sequential loop's p-value, and the rng ends in the same state, whatever
// the worker count. The reference p is 0.5 for the power-law input, so
// the count is not trivially 0 or all.
func TestPValueIndependentOfGOMAXPROCS(t *testing.T) {
	inputs := map[string][]int{
		"powerlaw":  genPowerLaw(rand.New(rand.NewSource(2)), 3000, 1, 2.2),
		"lognormal": genLognormalMixture(rand.New(rand.NewSource(3)), 5000),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const iters, seed = 24, 17
	for _, name := range []string{"powerlaw", "lognormal"} {
		data := inputs[name]
		fit, err := FitPowerLaw(data)
		if err != nil {
			t.Fatal(err)
		}
		ref := rand.New(rand.NewSource(seed))
		want := sequentialPValue(fit, data, iters, ref)
		wantNext := ref.Int63()
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			rng := rand.New(rand.NewSource(seed))
			if got := fit.PValue(data, iters, rng); got != want {
				t.Errorf("%s at GOMAXPROCS %d: p = %v, sequential reference %v", name, procs, got, want)
			}
			if next := rng.Int63(); next != wantNext {
				t.Errorf("%s at GOMAXPROCS %d: rng advanced differently from the reference", name, procs)
			}
		}
	}
}

func TestFitTooFewSamples(t *testing.T) {
	if _, err := FitPowerLaw([]int{1, 2, 3}); err == nil {
		t.Error("tiny sample accepted")
	}
}

func TestSamplePowerLawBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		v := samplePowerLaw(rng, 5, 2.0)
		if v < 5 {
			t.Fatalf("sample %d below xmin", v)
		}
	}
}

func TestValuesSorted(t *testing.T) {
	m := map[cid.CID]int{
		cid.Sum(cid.Raw, []byte("a")): 5,
		cid.Sum(cid.Raw, []byte("b")): 1,
		cid.Sum(cid.Raw, []byte("c")): 3,
	}
	vals := Values(m)
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 5 {
		t.Errorf("values = %v", vals)
	}
}
