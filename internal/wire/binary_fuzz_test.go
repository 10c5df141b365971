package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// FuzzParseBinaryFrame throws arbitrary bytes at the frame splitter and
// every payload parser: header abuse, varint abuse, truncation and flag
// games must never panic or read past the declared payload, and
// anything accepted must satisfy the codec closure — re-encoding an
// accepted message reproduces a frame that parses back to the same
// message. Frames of the retired types 1 and 2 must split as unknown
// types that no payload parser claims.
func FuzzParseBinaryFrame(f *testing.F) {
	call, _ := AppendServiceCall(nil, mkCall())
	retired := func(typ byte) []byte {
		b := append([]byte(nil), call...)
		b[3] = typ
		return b
	}
	f.Add(retired(1))
	f.Add(retired(2))
	f.Add(AppendLocation(nil, LocationUpdate{User: 3, X: 1.25, Y: -2.5, T: 77}))
	call, _ = AppendServiceCall(nil, ServiceCall{User: 1, X: math.Pi, Y: 0, T: 5, Service: "svc", Traceparent: "00-x-y-01"})
	f.Add(call)
	f.Add(AppendDecision(nil, DecisionFrame{Forwarded: true, Pseudonym: "p", TraceID: "t"}))
	f.Add([]byte{magic[0], magic[1], binaryVersion, byte(FrameLocation), 0xff, 0, 0, 0, 0})
	f.Add([]byte{magic[0], magic[1], binaryVersion, 1, 0, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, flags, payload, _, err := splitFrame(data)
		if err != nil {
			return
		}
		switch typ {
		case FrameLocation:
			l, err := ParseLocationPayload(flags, payload)
			if err != nil {
				return
			}
			again, err := parseLocation(AppendLocation(nil, l))
			if err != nil || again != l {
				t.Fatalf("location closure violated: %v", err)
			}
		case FrameServiceCall:
			c, err := ParseServiceCallPayload(flags, payload)
			if err != nil {
				return
			}
			frame, err := AppendServiceCall(nil, c)
			if err != nil {
				t.Fatalf("accepted call does not re-encode: %v", err)
			}
			again, err := parseServiceCall(frame)
			if err != nil || !reflect.DeepEqual(again, c) {
				t.Fatalf("service-call closure violated: %v", err)
			}
		case FrameDecision:
			d, err := ParseDecisionPayload(flags, payload)
			if err != nil {
				return
			}
			again, err := parseDecision(AppendDecision(nil, d))
			if err != nil || again != d {
				t.Fatalf("decision closure violated: %v", err)
			}
		case FrameBatch:
			dec, err := NewBatchDecoder(data)
			if err != nil {
				return
			}
			for dec.Next() {
			}
			_ = dec.Err()
		default:
			if name := typ.String(); name != fmt.Sprintf("type_%d", byte(typ)) {
				t.Fatalf("unknown frame type %d named %q", byte(typ), name)
			}
		}
	})
}

// FuzzBatchRoundTrip drives batching from both directions. The fuzz
// input is first read as a value script building a batch of location
// updates and service calls, with and without data maps —
// decode(encode(batch)) must reproduce the batch exactly. The raw input
// is then also decoded directly as a batch, so mutated batch framing
// exercises the decoder's bounds checks.
func FuzzBatchRoundTrip(f *testing.F) {
	var frames []byte
	frames = AppendLocation(frames, LocationUpdate{User: 1, X: 2.25, Y: -3, T: 4})
	frames, _ = AppendServiceCall(frames, mkCall())
	seed, _ := AppendBatch(nil, 2, frames)
	f.Add(seed)
	f.Add([]byte("HW\x01\x06\x00\x00\x00\x00\x00"))
	f.Add(bytes.Repeat([]byte{0x80}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: build a batch from the input's values.
		vals := valueReader{p: data}
		var built []byte
		var want []any
		for len(want) < 64 {
			kind, ok := vals.byte()
			if !ok {
				break
			}
			switch kind % 3 {
			case 0:
				l := LocationUpdate{User: vals.int64(), X: vals.coord(), Y: vals.coord(), T: vals.int64()}
				if math.IsNaN(l.X) || math.IsInf(l.X, 0) || math.IsNaN(l.Y) || math.IsInf(l.Y, 0) {
					continue
				}
				built = AppendLocation(built, l)
				want = append(want, l)
			default:
				c := ServiceCall{
					User: vals.int64(), X: vals.coord(), Y: vals.coord(), T: vals.int64(),
					Service: "s" + vals.str(), Traceparent: vals.str(),
				}
				if kind%3 == 2 {
					c.Data = map[string]string{"k" + vals.str(): vals.str(), "z": vals.str()}
				}
				if math.IsNaN(c.X) || math.IsInf(c.X, 0) || math.IsNaN(c.Y) || math.IsInf(c.Y, 0) {
					continue
				}
				var err error
				if built, err = AppendServiceCall(built, c); err != nil {
					t.Fatalf("encode %+v: %v", c, err)
				}
				want = append(want, c)
			}
		}
		if len(want) > 0 {
			batch, err := AppendBatch(nil, len(want), built)
			if err != nil {
				t.Fatalf("encode batch: %v", err)
			}
			checkBatchEquals(t, batch, want)
		}

		// Direction 2: the raw input as a batch. Whatever decodes must
		// re-encode to a batch that decodes identically.
		dec, err := NewBatchDecoder(data)
		if err != nil {
			return
		}
		var rebuilt []byte
		var got []any
		for dec.Next() {
			switch dec.Type() {
			case FrameLocation:
				l, err := ParseLocationPayload(dec.Flags(), dec.Payload())
				if err != nil {
					return
				}
				rebuilt = AppendLocation(rebuilt, l)
				got = append(got, l)
			case FrameServiceCall:
				c, err := ParseServiceCallPayload(dec.Flags(), dec.Payload())
				if err != nil {
					return
				}
				rebuilt, err = AppendServiceCall(rebuilt, c)
				if err != nil {
					t.Fatalf("accepted call does not re-encode: %v", err)
				}
				got = append(got, c)
			default:
				return
			}
		}
		if dec.Err() != nil || len(got) == 0 {
			return
		}
		batch, err := AppendBatch(nil, len(got), rebuilt)
		if err != nil {
			t.Fatalf("re-encode batch: %v", err)
		}
		checkBatchEquals(t, batch, got)
	})
}

// checkBatchEquals decodes batch and asserts it carries exactly want.
func checkBatchEquals(t *testing.T, batch []byte, want []any) {
	t.Helper()
	dec, err := NewBatchDecoder(batch)
	if err != nil {
		t.Fatalf("decode batch: %v", err)
	}
	i := 0
	for dec.Next() {
		if i >= len(want) {
			t.Fatalf("batch yields more than %d frames", len(want))
		}
		var got any
		var err error
		switch dec.Type() {
		case FrameLocation:
			got, err = ParseLocationPayload(dec.Flags(), dec.Payload())
		case FrameServiceCall:
			got, err = ParseServiceCallPayload(dec.Flags(), dec.Payload())
		default:
			t.Fatalf("frame %d: unexpected type %s", i, dec.Type())
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("frame %d:\n got %+v\nwant %+v", i, got, want[i])
		}
		i++
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("decoded %d frames, want %d", i, len(want))
	}
}

// valueReader consumes fuzz bytes as typed values, zero-padding at the
// end so every read succeeds deterministically.
type valueReader struct {
	p   []byte
	off int
}

func (v *valueReader) byte() (byte, bool) {
	if v.off >= len(v.p) {
		return 0, false
	}
	b := v.p[v.off]
	v.off++
	return b, true
}

func (v *valueReader) chunk(n int) []byte {
	out := make([]byte, n)
	c := copy(out, v.p[min(v.off, len(v.p)):])
	v.off += c
	return out
}

func (v *valueReader) int64() int64 {
	return int64(binary.LittleEndian.Uint64(v.chunk(8)))
}

func (v *valueReader) uint16() uint16 {
	return binary.LittleEndian.Uint16(v.chunk(2))
}

// coord yields either an arbitrary float64 or a fixed-point lattice
// value, so both coordinate paths get exercised.
func (v *valueReader) coord() float64 {
	b, _ := v.byte()
	if b%2 == 0 {
		return float64(int32(binary.LittleEndian.Uint32(v.chunk(4)))) / 4
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(v.chunk(8)))
}

func (v *valueReader) str() string {
	b, _ := v.byte()
	return string(v.chunk(int(b % 8)))
}
