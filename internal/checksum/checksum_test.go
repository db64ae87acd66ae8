package checksum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reference is the textbook RFC 1071 checksum, written maximally plainly,
// used as the oracle for the optimized implementations.
func reference(data []byte) uint16 {
	var sum uint32
	for i := 0; i < len(data); i += 2 {
		w := uint32(data[i]) << 8
		if i+1 < len(data) {
			w |= uint32(data[i+1])
		}
		sum += w
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

func TestKnownVectors(t *testing.T) {
	// RFC 1071 §3 example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2 with
	// carries folded; checksum is its complement.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	want := ^uint16(0xddf2)
	for name, fn := range map[string]func([]byte) uint16{
		"Simple": Simple, "Unrolled": Unrolled, "reference": reference,
	} {
		if got := fn(data); got != want {
			t.Errorf("%s(%x) = %#04x, want %#04x", name, data, got, want)
		}
	}
}

func TestEmptyAndSingleByte(t *testing.T) {
	if Simple(nil) != 0xffff || Unrolled(nil) != 0xffff {
		t.Error("checksum of empty data should be 0xffff")
	}
	one := []byte{0xab}
	want := ^uint16(0xab00)
	if Simple(one) != want || Unrolled(one) != want {
		t.Errorf("single byte: %#04x / %#04x, want %#04x", Simple(one), Unrolled(one), want)
	}
}

func TestImplementationsAgreeQuick(t *testing.T) {
	f := func(data []byte) bool {
		want := reference(data)
		return Simple(data) == want && Unrolled(data) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnrolledExercisesAllLoops(t *testing.T) {
	// Lengths chosen to hit the 64-, 16-, 2- and 1-byte loops in every
	// combination.
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 15, 16, 17, 63, 64, 65, 79, 80, 81, 127, 128, 552, 1500} {
		data := make([]byte, n)
		rng.Read(data)
		if got, want := Unrolled(data), reference(data); got != want {
			t.Errorf("Unrolled(len %d) = %#04x, want %#04x", n, got, want)
		}
	}
}

func TestAccumulatorMatchesWholeBuffer(t *testing.T) {
	f := func(data []byte, cuts []uint8) bool {
		var a Accumulator
		rest := data
		for _, c := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(c) % (len(rest) + 1)
			a.Add(rest[:n])
			rest = rest[n:]
		}
		a.Add(rest)
		return a.Sum16() == reference(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorOddSplits(t *testing.T) {
	// The hard case: odd-length chunks force byte-straddling words.
	data := []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}
	var a Accumulator
	a.Add(data[:1])
	a.Add(data[1:2])
	a.Add(data[2:5])
	a.Add(data[5:])
	if got, want := a.Sum16(), reference(data); got != want {
		t.Errorf("odd splits = %#04x, want %#04x", got, want)
	}
}

func TestAccumulatorAddUint16(t *testing.T) {
	var a Accumulator
	a.AddUint16(0x1234)
	a.Add([]byte{0x56, 0x78})
	if got, want := a.Sum16(), reference([]byte{0x12, 0x34, 0x56, 0x78}); got != want {
		t.Errorf("AddUint16 path = %#04x, want %#04x", got, want)
	}
}

func TestAddUint16AtOddOffsetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddUint16 at odd offset should panic")
		}
	}()
	var a Accumulator
	a.Add([]byte{1})
	a.AddUint16(0x1234)
}

func TestChain(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got, want := Chain(data[:3], data[3:3], data[3:]), reference(data); got != want {
		t.Errorf("Chain = %#04x, want %#04x", got, want)
	}
}

func BenchmarkSimple552(b *testing.B) {
	data := make([]byte, 552)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(552)
	for i := 0; i < b.N; i++ {
		Simple(data)
	}
}

func BenchmarkUnrolled552(b *testing.B) {
	data := make([]byte, 552)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(552)
	for i := 0; i < b.N; i++ {
		Unrolled(data)
	}
}

func BenchmarkUnrolled1500(b *testing.B) {
	data := make([]byte, 1500)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		Unrolled(data)
	}
}
