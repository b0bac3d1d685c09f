package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// TestStatsJSONRoundTrip: every field of Stats — including the unexported
// accumulators behind AvgROBOccupancy/AvgMLP/ClassCount — must survive
// encode/decode, because the campaign cache serves decoded Stats in place
// of fresh ones and the resume gate diffs the resulting tables.
func TestStatsJSONRoundTrip(t *testing.T) {
	in := Stats{
		Name:             "WIB/2048",
		Cycles:           123456,
		Committed:        300000,
		IPC:              2.43,
		Skipped:          240000,
		StreamHash:       0xdeadbeefcafe,
		CondBranches:     1000,
		CondCorrect:      950,
		Mispredicts:      50,
		Misfetches:       7,
		Replays:          3,
		StoreWaitHits:    12,
		ForwardedLoads:   400,
		FetchedInstrs:    500000,
		SquashedInstrs:   20000,
		WIBInsertions:    8000,
		WIBReinsertions:  7000,
		WIBInstructions:  2000,
		WIBMaxInsertions: 42,
		BitVectorStalls:  5,
		WIBPeakOccupancy: 1800,
		HeadEvictions:    2,
		PoolSpills:       9,
		SliceExecuted:    11,
		MLPPeak:          14,
		robOccupancy:     99999,
		occupancySamples: 1234,
		mlpSum:           555,
		mlpCycles:        77,
	}
	for i := range in.classMix {
		in.classMix[i] = uint64(i * 13)
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Stats
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if out.AvgMLP() != in.AvgMLP() || out.AvgROBOccupancy() != in.AvgROBOccupancy() {
		t.Error("derived metrics differ after round trip")
	}
}

// statsField returns field i of the addressable struct v as a settable
// value whether or not the field is exported.
func statsField(v reflect.Value, i int) reflect.Value {
	f := v.Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// fillStats sets every field of Stats, exported or not, from next: one
// call per scalar, array elements included, so no field can be left out
// by a test that was not told about it.
func fillStats(s *Stats, next func() uint64) {
	var fill func(f reflect.Value)
	fill = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprint("name-", next()))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(next()))
		case reflect.Uint64:
			f.SetUint(next())
		case reflect.Float64:
			f.SetFloat(float64(next()))
		case reflect.Array:
			for i := 0; i < f.Len(); i++ {
				fill(f.Index(i))
			}
		default:
			panic(fmt.Sprintf("Stats has a field of kind %s: teach fillStats to fill it", f.Kind()))
		}
	}
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		fill(statsField(v, i))
	}
}

// statsKept names the fields of Stats that are not additive counters: a
// window keeps the later snapshot's labels and stream digest, and a peak
// is a maximum, not a sum. IPC is derived. Every other field must
// subtract in Delta and add in Accumulate, whoever adds it.
var statsKept = map[string]bool{
	"Name": true, "Skipped": true, "StreamHash": true,
	"WIBMaxInsertions": true, "WIBPeakOccupancy": true, "MLPPeak": true,
}

// scaledStats returns in with every additive counter multiplied by k and
// IPC set to ipc: what k windows equal to in must sum to (k = 0: what a
// window of no length must read).
func scaledStats(in Stats, k uint64, ipc float64) Stats {
	var scale func(f reflect.Value)
	scale = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() * int64(k))
		case reflect.Uint64:
			f.SetUint(f.Uint() * k)
		case reflect.Array:
			for i := 0; i < f.Len(); i++ {
				scale(f.Index(i))
			}
		}
	}
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !statsKept[v.Type().Field(i).Name] {
			scale(statsField(v, i))
		}
	}
	in.IPC = ipc
	return in
}

// diffStats reports, by name, every field of got that differs from want.
func diffStats(t *testing.T, path string, got, want Stats) {
	t.Helper()
	g, w := reflect.ValueOf(&got).Elem(), reflect.ValueOf(&want).Elem()
	for i := 0; i < w.NumField(); i++ {
		if want, have := statsField(w, i).Interface(), statsField(g, i).Interface(); !reflect.DeepEqual(want, have) {
			t.Errorf("%s: Stats.%s = %v, want %v", path, w.Type().Field(i).Name, have, want)
		}
	}
}

// TestStatsJSONGuardsNewFields sets every field of Stats, exported or not,
// to a distinct non-zero value and requires each to survive the three
// places a field can be silently dropped: the JSON round trip (the wire
// encoding), Delta against a zero snapshot, and Accumulate into a zero
// total (the window arithmetic sampling and skip/measure runs use). Those
// read the same whether a counter was subtracted or merely kept, so the
// arithmetic is then held to what it must do: a window against itself is
// empty but for its peaks and labels, two equal windows sum to twice the
// counters and the same peaks, and neither operation allocates. A new
// field fails here by name until the wire and the fold list carry it.
func TestStatsJSONGuardsNewFields(t *testing.T) {
	var in Stats
	n := uint64(1000)
	fillStats(&in, func() uint64 { n++; return n })
	in.IPC = float64(in.Committed) / float64(in.Cycles) // derived; Delta and Accumulate recompute it

	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var decoded, once, twice Stats
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	once.Accumulate(in)
	twice.Accumulate(in)
	twice.Accumulate(in)
	diffStats(t, "JSON round trip", decoded, in)
	diffStats(t, "Delta(zero)", in.Delta(Stats{}), in)
	diffStats(t, "Accumulate into zero", once, in)
	diffStats(t, "Delta(itself)", in.Delta(in), scaledStats(in, 0, 0))
	diffStats(t, "Accumulate twice", twice, scaledStats(in, 2, in.IPC))

	var sink Stats
	if a := testing.AllocsPerRun(100, func() { sink = in.Delta(once) }); a != 0 {
		t.Errorf("Delta: %v allocs per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink.Accumulate(in) }); a != 0 {
		t.Errorf("Accumulate: %v allocs per call, want 0", a)
	}
}
