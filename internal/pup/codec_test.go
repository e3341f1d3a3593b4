package pup

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The reference codec below is the per-element encoder the whole-window
// codec replaced: every collection element goes through its scalar method
// (raw's mode switch, bounds check and noteScalar), and the dirty splice
// re-encodes one element per closure call. The differential tests assert
// the two produce identical streams, dirty sets and mismatch lists.

func (p *PUPer) refSpliceBulk(n, elemSize int, encode func(i int, w []byte)) bool {
	if !p.splicing() || p.err != nil {
		return false
	}
	body := n * elemSize
	lo := p.off
	hi := lo + body
	if hi > len(p.buf) {
		p.overflow = true
		p.fail("pack overflow at %d (+%d, buffer %d)", lo, body, len(p.buf))
		return true
	}
	if hi > len(p.prev) {
		p.diverged = true
		return false
	}
	if !p.patch {
		copy(p.buf[lo:hi], p.prev[lo:hi])
	}
	encoded := 0
	last := -1
	// body > 0 is the one fix to the old form, which panicked on an empty
	// body under a mark.
	for body > 0 && p.dirtyIdx < len(p.dirty) {
		r := p.dirty[p.dirtyIdx]
		if r.Hi <= lo {
			p.dirtyIdx++
			continue
		}
		if r.Lo >= hi {
			break
		}
		rlo, rhi := max(r.Lo, lo), min(r.Hi, hi)
		first := (rlo - lo) / elemSize
		lastEl := (rhi - 1 - lo) / elemSize
		if first <= last {
			first = last + 1
		}
		for i := first; i <= lastEl; i++ {
			encode(i, p.buf[lo+i*elemSize:lo+(i+1)*elemSize])
		}
		if lastEl >= first {
			encoded += lastEl - first + 1
			last = lastEl
			if encStart := lo + first*elemSize; encStart < rlo {
				p.appendExtra(encStart, rlo)
			}
			if encEnd := lo + (lastEl+1)*elemSize; encEnd > rhi {
				p.appendExtra(rhi, encEnd)
			}
		}
		if r.Hi > hi {
			break
		}
		p.dirtyIdx++
	}
	p.off = hi
	p.reused += body - encoded*elemSize
	return true
}

// refElems is the per-element collection body: size the body, splice it,
// or pipe each element through its scalar method.
func refElems[T any](p *PUPer, v *[]T, size int, put func(w []byte, x T), scalar func(*T)) {
	n := p.length(len(*v))
	if n < 0 {
		return
	}
	if p.mode == Unpacking && len(*v) != n {
		*v = make([]T, n)
	}
	if p.mode == Sizing {
		p.off += size * n
		return
	}
	if p.refSpliceBulk(n, size, func(i int, w []byte) { put(w, (*v)[i]) }) {
		return
	}
	for i := range *v {
		if p.err != nil {
			return
		}
		scalar(&(*v)[i])
	}
}

func (p *PUPer) refFloat64s(v *[]float64) {
	refElems(p, v, 8, func(w []byte, x float64) { binary.LittleEndian.PutUint64(w, math.Float64bits(x)) }, p.Float64)
}

func (p *PUPer) refFloat32s(v *[]float32) {
	refElems(p, v, 4, func(w []byte, x float32) { binary.LittleEndian.PutUint32(w, math.Float32bits(x)) }, p.Float32)
}

func (p *PUPer) refInt64s(v *[]int64) {
	refElems(p, v, 8, func(w []byte, x int64) { binary.LittleEndian.PutUint64(w, uint64(x)) }, p.Int64)
}

func (p *PUPer) refInts(v *[]int) {
	refElems(p, v, 8, func(w []byte, x int) { binary.LittleEndian.PutUint64(w, uint64(int64(x))) }, p.Int)
}

func (p *PUPer) refBytes(v *[]byte) {
	n := p.length(len(*v))
	if n < 0 {
		return
	}
	if p.mode == Packing && p.refSpliceBulk(n, 1, func(i int, w []byte) { w[0] = (*v)[i] }) {
		return
	}
	w := p.raw(n)
	if p.mode == Sizing || p.err != nil {
		return
	}
	switch p.mode {
	case Packing:
		copy(w, *v)
	case Unpacking:
		if len(*v) != n {
			*v = make([]byte, n)
		}
		copy(*v, w)
	case Checking:
		if p.skipDepth == 0 {
			for i := 0; i < n; i++ {
				if (*v)[i] != w[i] {
					p.addMismatch(p.off, float64((*v)[i]), float64(w[i]))
					break
				}
			}
		}
	}
}

// bulkState holds every bulk kind between two scalars. skip names the one
// field piped inside a Skip region ("" for none).
type bulkState struct {
	Iter int
	F64  []float64
	F32  []float32
	I64  []int64
	I    []int
	B    []byte
	Tail float64
	skip string
}

func (s *bulkState) pupWith(p *PUPer, ref bool) {
	field := func(label string, body func()) {
		p.Label(label)
		if s.skip == label {
			p.Skip(func(*PUPer) { body() })
			return
		}
		body()
	}
	field("iter", func() { p.Int(&s.Iter) })
	if ref {
		field("f64", func() { p.refFloat64s(&s.F64) })
		field("f32", func() { p.refFloat32s(&s.F32) })
		field("i64", func() { p.refInt64s(&s.I64) })
		field("i", func() { p.refInts(&s.I) })
		field("b", func() { p.refBytes(&s.B) })
	} else {
		field("f64", func() { p.Float64s(&s.F64) })
		field("f32", func() { p.Float32s(&s.F32) })
		field("i64", func() { p.Int64s(&s.I64) })
		field("i", func() { p.Ints(&s.I) })
		field("b", func() { p.Bytes(&s.B) })
	}
	field("tail", func() { p.Float64(&s.Tail) })
}

// codecState pipes bulkState through the whole-window codec, refState
// through the per-element reference.
type codecState struct{ bulkState }
type refState struct{ bulkState }

func (s *codecState) Pup(p *PUPer) { s.pupWith(p, false) }
func (s *refState) Pup(p *PUPer)   { s.pupWith(p, true) }

func (s bulkState) clone() bulkState {
	s.F64 = append([]float64(nil), s.F64...)
	s.F32 = append([]float32(nil), s.F32...)
	s.I64 = append([]int64(nil), s.I64...)
	s.I = append([]int(nil), s.I...)
	s.B = append([]byte(nil), s.B...)
	return s
}

// specials are the float values whose comparison rules differ from plain
// equality: NaN equals NaN, +0 equals -0.
var specials = []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e-300}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(5) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return rng.NormFloat64() * 100
}

// bulkLens are the body lengths exercised: empty, one element, odd lengths
// and a body long enough to saturate the mismatch list.
var bulkLens = []int{0, 1, 2, 3, 7, 33}

func randBulkState(rng *rand.Rand) bulkState {
	n := func() int { return bulkLens[rng.Intn(len(bulkLens))] }
	s := bulkState{Iter: rng.Intn(1000) - 500, Tail: randFloat(rng)}
	s.F64 = make([]float64, n())
	for i := range s.F64 {
		s.F64[i] = randFloat(rng)
	}
	s.F32 = make([]float32, n())
	for i := range s.F32 {
		s.F32[i] = float32(randFloat(rng))
	}
	s.I64 = make([]int64, n())
	for i := range s.I64 {
		s.I64[i] = rng.Int63() - rng.Int63()
	}
	s.I = make([]int, n())
	for i := range s.I {
		s.I[i] = rng.Intn(1<<20) - 1<<19
	}
	s.B = make([]byte, n())
	rng.Read(s.B)
	return s
}

// mutate changes some elements of every field (and sometimes the scalars)
// of s in place. Changes are either tiny (inside a loose tolerance) or
// large; with many changes the checker's mismatch list saturates.
func mutate(rng *rand.Rand, s *bulkState) {
	frac := []float64{0, 0.2, 1}[rng.Intn(3)]
	hit := func() bool { return rng.Float64() < frac }
	for i := range s.F64 {
		if hit() {
			if rng.Intn(2) == 0 {
				s.F64[i] *= 1 + 1e-12
			} else {
				s.F64[i] = randFloat(rng)
			}
		}
	}
	for i := range s.F32 {
		if hit() {
			s.F32[i] = float32(randFloat(rng))
		}
	}
	for i := range s.I64 {
		if hit() {
			s.I64[i] ^= 1 << uint(rng.Intn(64))
		}
	}
	for i := range s.I {
		if hit() {
			s.I[i] = -s.I[i] - 1
		}
	}
	for i := range s.B {
		if hit() {
			s.B[i]++
		}
	}
	if hit() {
		s.Iter++
	}
	if hit() {
		s.Tail = randFloat(rng)
	}
}

// randMarks returns up to four random byte ranges of a stream of length n:
// they cut into elements, cross length prefixes and span fields.
func randMarks(rng *rand.Rand, n int) []Range {
	if n == 0 {
		return nil
	}
	var rs []Range
	for k := rng.Intn(5); k > 0; k-- {
		lo := rng.Intn(n)
		rs = append(rs, Range{Lo: lo, Hi: lo + 1 + rng.Intn(min(n-lo, 24))})
	}
	if rng.Intn(8) == 0 {
		rs = append(rs, Range{Lo: 0, Hi: rangeMax})
	}
	return rs
}

func packBoth(t *testing.T, s bulkState) []byte {
	t.Helper()
	got, err := Pack(&codecState{s})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Pack(&refState{s})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Pack differs from the per-element reference:\n got  %x\n want %x", got, want)
	}
	return got
}

func sameDirtyResult(t *testing.T, what string, got, want DirtyPackResult, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("%s: stream differs from the reference:\n got  %x\n want %x", what, got.Data, want.Data)
	}
	if got.Spliced != want.Spliced || got.Reused != want.Reused || got.Fast != want.Fast ||
		!reflect.DeepEqual(got.Dirty, want.Dirty) {
		t.Fatalf("%s: {Spliced %v Reused %d Fast %v Dirty %v}, reference {Spliced %v Reused %d Fast %v Dirty %v}",
			what, got.Spliced, got.Reused, got.Fast, got.Dirty, want.Spliced, want.Reused, want.Fast, want.Dirty)
	}
}

func TestCodecMatchesPerElementReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 400; iter++ {
		s0 := randBulkState(rng)
		base := packBoth(t, s0)

		// PackInto's overflow fallback: the state grew past the hint.
		hint := len(base) / 2
		got, gotFast, gotErr := PackInto(&codecState{s0}, make([]byte, 0, hint))
		want, wantFast, wantErr := PackInto(&refState{s0}, make([]byte, 0, hint))
		if gotErr != nil || wantErr != nil || gotFast != wantFast || !bytes.Equal(got, want) || !bytes.Equal(got, base) {
			t.Fatalf("PackInto overflow fallback: fast %v/%v err %v/%v, streams equal %v",
				gotFast, wantFast, gotErr, wantErr, bytes.Equal(got, want))
		}

		// Copy-splice against base after a marked mutation.
		s1 := s0.clone()
		mutate(rng, &s1)
		marks1 := randMarks(rng, len(base))
		gotRes, gotErr := PackDirtyInto(&codecState{s1}, make([]byte, 0, len(base)), base, append([]Range(nil), marks1...))
		wantRes, wantErr := PackDirtyInto(&refState{s1}, make([]byte, 0, len(base)), base, append([]Range(nil), marks1...))
		sameDirtyResult(t, "PackDirtyInto", gotRes, wantRes, gotErr, wantErr)
		prev := wantRes.Data

		// Patch-in-place into a copy of base, two epochs on.
		s2 := s1.clone()
		mutate(rng, &s2)
		marks2 := randMarks(rng, len(base))
		reencode := append(append([]Range(nil), marks2...), wantRes.Dirty...)
		if !wantRes.Spliced {
			reencode = append(reencode, Range{Lo: 0, Hi: rangeMax})
		}
		gotRes, gotErr = PackDirtyPatch(&codecState{s2}, bytes.Clone(base)[:0], prev,
			append([]Range(nil), marks2...), append([]Range(nil), reencode...))
		wantRes, wantErr = PackDirtyPatch(&refState{s2}, bytes.Clone(base)[:0], prev,
			append([]Range(nil), marks2...), append([]Range(nil), reencode...))
		sameDirtyResult(t, "PackDirtyPatch", gotRes, wantRes, gotErr, wantErr)

		// Check live s2 against base: skip regions, tolerances, NaN, ±0
		// and saturation must give the same mismatch list.
		s2.skip = []string{"", "", "f64", "f32", "i64", "b"}[rng.Intn(6)]
		relTol := []float64{0, 1e-9, 0.5}[rng.Intn(3)]
		gotCheck, gotErr := Check(&codecState{s2}, base, relTol)
		wantCheck, wantErr := Check(&refState{s2}, base, relTol)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(mismatchKeys(gotCheck), mismatchKeys(wantCheck)) {
			t.Fatalf("Check (skip %q, relTol %g): %+v (err %v), reference %+v (err %v)",
				s2.skip, relTol, gotCheck, gotErr, wantCheck, wantErr)
		}

		// Round trip, and a clean error on every truncation.
		var back codecState
		if err := Unpack(base, &back); err != nil {
			t.Fatalf("Unpack: %v", err)
		}
		if again := packBoth(t, back.bulkState); !bytes.Equal(again, base) {
			t.Fatalf("Unpack round trip changed the stream")
		}
		for _, cut := range []int{0, 1, 3, len(base) / 2, len(base) - 1} {
			var short codecState
			if err := Unpack(base[:cut], &short); err == nil {
				t.Fatalf("Unpack of %d of %d bytes succeeded", cut, len(base))
			}
			if _, err := Check(&codecState{s0}, base[:cut], 0); err == nil {
				t.Fatalf("Check against %d of %d bytes succeeded", cut, len(base))
			}
		}
	}
}

// mismatchKey is a Mismatch with NaN-safe value comparison.
type mismatchKey struct {
	Label         string
	Offset        int
	Local, Remote uint64
}

func mismatchKeys(r CheckResult) []mismatchKey {
	var ks []mismatchKey
	for _, m := range r.Mismatches {
		ks = append(ks, mismatchKey{m.Label, m.Offset, math.Float64bits(m.Local), math.Float64bits(m.Remote)})
	}
	return ks
}

// TestCheckOffsetsNameTheMismatchedElement pins the offset convention on
// a hand-built case: a mismatch's offset is just past its element, so its
// ChunkIndex names the chunk holding the element's last byte.
func TestCheckOffsetsNameTheMismatchedElement(t *testing.T) {
	s := bulkState{F64: make([]float64, 40), F32: make([]float32, 5), I: []int{-1, 2}}
	remote, err := Pack(&codecState{s})
	if err != nil {
		t.Fatal(err)
	}
	s.F64[3], s.F32[4], s.I[0] = 1, 2, 3
	res, err := Check(&codecState{s}, remote, 0)
	if err != nil {
		t.Fatal(err)
	}
	f64Body := 8 + 4               // iter, f64 prefix
	f32Body := f64Body + 8*40 + 4  // f64 body, f32 prefix
	iBody := f32Body + 4*5 + 4 + 4 // f32 body, i64 prefix (empty), i prefix
	want := []Mismatch{
		{Label: "f64", Offset: f64Body + 8*4, Local: 1, Remote: 0},
		{Label: "f32", Offset: f32Body + 4*5, Local: 2, Remote: 0},
		{Label: "i", Offset: iBody + 8, Local: 3, Remote: float64(uint64(math.MaxUint64))},
	}
	if !reflect.DeepEqual(res.Mismatches, want) {
		t.Fatalf("mismatches %+v, want %+v", res.Mismatches, want)
	}
	if got := res.Mismatches[0].ChunkIndex(8); got != (f64Body+8*4-1)/8 {
		t.Fatalf("ChunkIndex(8) = %d", got)
	}
}

// FuzzUnpack feeds foreign streams to the decoder and the checker: neither
// may panic, and a stream Unpack accepts must re-pack to itself.
func FuzzUnpack(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b, err := Pack(&codecState{randBulkState(rng)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	live := &codecState{randBulkState(rng)}
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = Check(live, b, 1e-9)
		var s codecState
		if err := Unpack(b, &s); err != nil {
			return
		}
		again, err := Pack(&s)
		if err != nil {
			t.Fatalf("re-pack of an accepted stream: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-pack differs:\n got  %x\n want %x", again, b)
		}
		if res, err := Check(&s, b, 0); err != nil || !res.Match {
			t.Fatalf("decoded state does not check against its own stream: %+v, %v", res, err)
		}
	})
}
