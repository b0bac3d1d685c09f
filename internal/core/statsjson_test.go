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

// TestStatsJSONGuardsNewFields sets every field of Stats, exported or not,
// to a distinct non-zero value and requires each to survive the three
// places a field can be silently dropped: the JSON round trip (the wire
// encoding), Delta against a zero snapshot, and Accumulate into a zero
// total (the window arithmetic sampling and skip/measure runs use). A new
// field fails here by name until all three carry it.
func TestStatsJSONGuardsNewFields(t *testing.T) {
	var in Stats
	n := 0
	var fill func(f reflect.Value)
	fill = func(f reflect.Value) {
		n++
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprint("name-", n))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + n))
		case reflect.Uint64:
			f.SetUint(uint64(1000 + n))
		case reflect.Float64:
			f.SetFloat(float64(n))
		case reflect.Array:
			for i := 0; i < f.Len(); i++ {
				fill(f.Index(i))
			}
		default:
			t.Fatalf("Stats has a field of kind %s: teach this test to fill it", f.Kind())
		}
	}
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		fill(statsField(v, i))
	}
	in.IPC = float64(in.Committed) / float64(in.Cycles) // derived; Delta and Accumulate recompute it

	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var decoded, accumulated Stats
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	accumulated.Accumulate(in)
	for path, got := range map[string]Stats{
		"JSON round trip":      decoded,
		"Delta(zero)":          in.Delta(Stats{}),
		"Accumulate into zero": accumulated,
	} {
		g := reflect.ValueOf(&got).Elem()
		for i := 0; i < v.NumField(); i++ {
			if want, have := statsField(v, i).Interface(), statsField(g, i).Interface(); !reflect.DeepEqual(want, have) {
				t.Errorf("%s drops Stats.%s: got %v, want %v", path, v.Type().Field(i).Name, have, want)
			}
		}
	}
}
