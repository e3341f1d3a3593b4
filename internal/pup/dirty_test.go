package pup

import (
	"bytes"
	"reflect"
	"testing"
)

// trackedProg is the test shape for dirty packing: two scalars, a bulk
// float field, and a bulk byte field, all labelled.
type trackedProg struct {
	WriteSet
	Iter  int
	Scale float64
	Vals  []float64
	Blob  []byte
}

func (t *trackedProg) Pup(p *PUPer) {
	p.Label("iter")
	p.Int(&t.Iter)
	p.Label("scale")
	p.Float64(&t.Scale)
	p.Label("vals")
	p.Float64s(&t.Vals)
	p.Label("blob")
	p.Bytes(&t.Blob)
}

func newTrackedProg(nVals, nBlob int) *trackedProg {
	tp := &trackedProg{Iter: 7, Scale: 1.25}
	tp.Vals = make([]float64, nVals)
	for i := range tp.Vals {
		tp.Vals[i] = float64(i) * 0.5
	}
	tp.Blob = make([]byte, nBlob)
	for i := range tp.Blob {
		tp.Blob[i] = byte(i * 13)
	}
	return tp
}

// covered reports whether [lo, hi) lies inside one of the ranges.
func covered(rs []Range, lo, hi int) bool {
	for _, r := range rs {
		if r.Lo <= lo && hi <= r.Hi {
			return true
		}
	}
	return false
}

// checkSpliceInvariant asserts the contract CaptureDirtyInto relies on:
// every byte where the spliced stream differs from prev is inside the
// returned dirty set.
func checkSpliceInvariant(t *testing.T, res DirtyPackResult, prev []byte) {
	t.Helper()
	if !res.Spliced {
		t.Fatalf("expected spliced result")
	}
	if len(res.Data) != len(prev) {
		t.Fatalf("spliced stream length %d != prev %d", len(res.Data), len(prev))
	}
	for i := range res.Data {
		if res.Data[i] != prev[i] && !covered(res.Dirty, i, i+1) {
			t.Fatalf("byte %d differs from prev but is not in dirty set %v", i, res.Dirty)
		}
	}
}

func TestPackDirtyIntoTable(t *testing.T) {
	type testCase struct {
		name string
		// mutate changes the program between the base capture and the
		// dirty capture, marking ranges via the tracker as a real app
		// would. spans are the field spans of the base shape.
		mutate func(tp *trackedProg, spans map[string]Range)
		// wantSpliced is whether the second capture may reuse clean-chunk
		// sums.
		wantSpliced bool
		// wantFreshEqual is whether the output must equal a from-scratch
		// Pack of the mutated state (false only for the documented lying-
		// tracker hazard).
		wantFreshEqual bool
	}
	cases := []testCase{
		{
			name:           "all-clean",
			mutate:         func(tp *trackedProg, spans map[string]Range) {},
			wantSpliced:    true,
			wantFreshEqual: true,
		},
		{
			name: "all-dirty",
			mutate: func(tp *trackedProg, spans map[string]Range) {
				for i := range tp.Vals {
					tp.Vals[i] += 3
				}
				for i := range tp.Blob {
					tp.Blob[i] ^= 0xff
				}
				tp.Iter++
				tp.MarkAll()
			},
			wantSpliced:    true,
			wantFreshEqual: true,
		},
		{
			name: "single-element",
			mutate: func(tp *trackedProg, spans map[string]Range) {
				tp.Vals[3] = -42
				tp.MarkSpan(spans["vals"].Slice(3, 4, 8))
			},
			wantSpliced:    true,
			wantFreshEqual: true,
		},
		{
			name: "element-boundary-straddling",
			mutate: func(tp *trackedProg, spans map[string]Range) {
				tp.Vals[2] = 99
				tp.Vals[3] = 100
				// One mark covering the back half of element 2 and the
				// front half of element 3: both must be re-encoded.
				s := spans["vals"].Slice(2, 4, 8)
				tp.MarkRange(s.Lo+4, s.Hi-4)
			},
			wantSpliced:    true,
			wantFreshEqual: true,
		},
		{
			name: "mark-spans-two-fields",
			mutate: func(tp *trackedProg, spans map[string]Range) {
				tp.Vals[len(tp.Vals)-1] = 7.5
				tp.Blob[0] = 0xaa
				// A single range from the tail of vals into the head of
				// blob, crossing the length prefix between them.
				tp.MarkRange(spans["vals"].Hi-8, spans["blob"].Lo+5)
			},
			wantSpliced:    true,
			wantFreshEqual: true,
		},
		{
			name: "unmarked-scalar-self-detected",
			mutate: func(tp *trackedProg, spans map[string]Range) {
				tp.Iter = 1234 // no mark: noteScalar must catch it
				tp.Scale = 9.75
			},
			wantSpliced:    true,
			wantFreshEqual: true,
		},
		{
			name: "shape-change-forces-rebase",
			mutate: func(tp *trackedProg, spans map[string]Range) {
				tp.Vals = append(tp.Vals, 1, 2, 3)
				tp.MarkAll()
			},
			wantSpliced:    false,
			wantFreshEqual: true,
		},
		{
			name: "shape-shrink-forces-rebase",
			mutate: func(tp *trackedProg, spans map[string]Range) {
				tp.Vals = tp.Vals[:2]
				tp.MarkAll()
			},
			wantSpliced:    false,
			wantFreshEqual: true,
		},
		{
			name: "lying-tracker-produces-stale-bulk",
			mutate: func(tp *trackedProg, spans map[string]Range) {
				tp.Vals[5] = 1e9 // bulk write, deliberately unmarked
			},
			wantSpliced:    true,
			wantFreshEqual: false, // the documented hazard: stale splice
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := newTrackedProg(8, 32)
			spans := FieldSpans(tp)
			prev, err := Pack(tp)
			if err != nil {
				t.Fatal(err)
			}
			tp.ResetDirty()
			tc.mutate(tp, spans)
			var scratch []Range
			marks, ok := tp.DirtyRanges(scratch)
			if !ok {
				t.Fatal("tracker should be armed after ResetDirty")
			}
			buf := make([]byte, 0, len(prev))
			res, err := PackDirtyInto(tp, buf, prev, marks)
			if err != nil {
				t.Fatal(err)
			}
			if res.Spliced != tc.wantSpliced {
				t.Fatalf("spliced = %v, want %v", res.Spliced, tc.wantSpliced)
			}
			fresh, err := Pack(tp)
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.Equal(res.Data, fresh); got != tc.wantFreshEqual {
				t.Fatalf("data == fresh pack: %v, want %v", got, tc.wantFreshEqual)
			}
			if res.Spliced {
				checkSpliceInvariant(t, res, prev)
			}
			// Round-trip: whatever was packed must restore consistently.
			var back trackedProg
			if err := Unpack(res.Data, &back); err != nil {
				t.Fatalf("unpack: %v", err)
			}
		})
	}
}

func TestPackDirtyIntoAllCleanReusesBulkBytes(t *testing.T) {
	tp := newTrackedProg(64, 128)
	prev, err := Pack(tp)
	if err != nil {
		t.Fatal(err)
	}
	tp.ResetDirty()
	res, err := PackDirtyInto(tp, make([]byte, 0, len(prev)), prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spliced || !res.Fast {
		t.Fatalf("expected spliced fast pack, got %+v", res)
	}
	wantReused := 64*8 + 128 // both bulk bodies spliced wholesale
	if res.Reused != wantReused {
		t.Fatalf("reused %d bytes, want %d", res.Reused, wantReused)
	}
	if !bytes.Equal(res.Data, prev) {
		t.Fatal("all-clean splice must reproduce the previous stream")
	}
}

func TestPackDirtyIntoOverflowFallsBack(t *testing.T) {
	tp := newTrackedProg(8, 8)
	prev, err := Pack(tp)
	if err != nil {
		t.Fatal(err)
	}
	tp.ResetDirty()
	tp.Vals = append(tp.Vals, 5, 6) // grows past the buffer capacity
	tp.MarkAll()
	res, err := PackDirtyInto(tp, make([]byte, 0, len(prev)), prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fast || res.Spliced {
		t.Fatalf("growth past capacity must take the two-pass fallback, got %+v", res)
	}
	fresh, err := Pack(tp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, fresh) {
		t.Fatal("fallback pack differs from a fresh pack")
	}
}

func TestPackDirtyIntoNilPrevMatchesPackInto(t *testing.T) {
	tp := newTrackedProg(8, 8)
	want, err := Pack(tp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PackDirtyInto(tp, make([]byte, 0, len(want)), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fast || res.Spliced {
		t.Fatalf("nil prev should fast-pack without splicing, got %+v", res)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatal("pack mismatch")
	}
}

func TestWriteSetZeroValueIsBlind(t *testing.T) {
	var ws WriteSet
	ws.MarkRange(0, 100) // must be ignored while blind
	if _, ok := ws.DirtyRanges(nil); ok {
		t.Fatal("zero-value WriteSet must report not-tracking")
	}
	ws.ResetDirty()
	if rs, ok := ws.DirtyRanges(nil); !ok || len(rs) != 0 {
		t.Fatalf("armed empty set: got %v ok=%v", rs, ok)
	}
	ws.MarkRange(10, 20)
	ws.MarkRange(20, 30) // adjacent: merges
	ws.MarkRange(50, 60)
	rs, ok := ws.DirtyRanges(nil)
	if !ok || len(rs) != 2 || rs[0] != (Range{10, 30}) || rs[1] != (Range{50, 60}) {
		t.Fatalf("got %v ok=%v", rs, ok)
	}
}

func TestNormalizeRanges(t *testing.T) {
	rs := NormalizeRanges([]Range{{30, 40}, {5, 10}, {8, 12}, {12, 20}, {25, 25}})
	want := []Range{{5, 20}, {30, 40}}
	if len(rs) != len(want) {
		t.Fatalf("got %v, want %v", rs, want)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("got %v, want %v", rs, want)
		}
	}
}

func TestFieldSpans(t *testing.T) {
	tp := newTrackedProg(4, 16)
	spans := FieldSpans(tp)
	if spans["iter"] != (Range{0, 8}) {
		t.Fatalf("iter span %v", spans["iter"])
	}
	if spans["scale"] != (Range{8, 16}) {
		t.Fatalf("scale span %v", spans["scale"])
	}
	valsWant := Range{16, 16 + 4 + 4*8}
	if spans["vals"] != valsWant {
		t.Fatalf("vals span %v, want %v", spans["vals"], valsWant)
	}
	blobWant := Range{valsWant.Hi, valsWant.Hi + 4 + 16}
	if spans["blob"] != blobWant {
		t.Fatalf("blob span %v, want %v", spans["blob"], blobWant)
	}
	if total := Size(tp); blobWant.Hi != total {
		t.Fatalf("spans end %d, stream size %d", blobWant.Hi, total)
	}
}

// narrowScalars has the 4- and 2-byte scalars next to a bulk field.
type narrowScalars struct {
	F float32
	U uint16
	V []float64
}

func (n *narrowScalars) Pup(p *PUPer) {
	p.Float32(&n.F)
	p.Uint16(&n.U)
	p.Float64s(&n.V)
}

// Unmarked changes to float32 and uint16 scalars are self-detected like
// every other scalar's: a spliced result must report them dirty, or chunk
// sums of the previous capture would be reused over changed bytes.
func TestPackDirtyIntoDetectsNarrowScalars(t *testing.T) {
	st := &narrowScalars{F: 1.5, U: 7, V: []float64{1, 2, 3}}
	prev, err := Pack(st)
	if err != nil {
		t.Fatal(err)
	}
	st.F, st.U = -2.5, 9
	res, err := PackDirtyInto(st, make([]byte, 0, len(prev)), prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSpliceInvariant(t, res, prev)
	if want := []Range{{Lo: 0, Hi: 6}}; !reflect.DeepEqual(res.Dirty, want) {
		t.Fatalf("dirty %v, want %v", res.Dirty, want)
	}
}
