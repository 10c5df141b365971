package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"histanon/internal/geo"
)

// mkCall is the reference service call the malformed-input cases
// corrupt: it carries every payload field kind — varints, coordinates,
// strings and a data map.
func mkCall() ServiceCall {
	return ServiceCall{
		User: 42, X: 100.25, Y: -50.5, T: 1000,
		Service: "weather", Traceparent: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		Data: map[string]string{"q": "forecast", "units": "si"},
	}
}

// payloadOf splits one complete frame of type want, rejecting trailing
// bytes after it.
func payloadOf(frame []byte, want FrameType) (byte, []byte, error) {
	typ, flags, payload, rest, err := splitFrame(frame)
	if err != nil {
		return 0, nil, err
	}
	if typ != want {
		return 0, nil, fmt.Errorf("frame type %s, want %s", typ, want)
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%d trailing bytes after frame", len(rest))
	}
	return flags, payload, nil
}

func parseLocation(frame []byte) (LocationUpdate, error) {
	flags, p, err := payloadOf(frame, FrameLocation)
	if err != nil {
		return LocationUpdate{}, err
	}
	return ParseLocationPayload(flags, p)
}

func parseServiceCall(frame []byte) (ServiceCall, error) {
	flags, p, err := payloadOf(frame, FrameServiceCall)
	if err != nil {
		return ServiceCall{}, err
	}
	return ParseServiceCallPayload(flags, p)
}

func parseDecision(frame []byte) (DecisionFrame, error) {
	flags, p, err := payloadOf(frame, FrameDecision)
	if err != nil {
		return DecisionFrame{}, err
	}
	return ParseDecisionPayload(flags, p)
}

// The round-trip tables cover both coordinate paths: lattice values
// take fixed point; irrational, huge, denormal and negative-zero values
// take the IEEE escape. Re-encoding the parse must reproduce the frame
// byte for byte — the check that catches a lost −0 sign bit, which
// float equality cannot.

func TestLocationRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []LocationUpdate{
		{User: 7, X: 100.25, Y: -50.5, T: 1234},
		{User: -1, X: 0, Y: 0, T: 0},
		{User: math.MaxInt64, X: math.Pi, Y: -math.E, T: math.MinInt64},
		{User: 0, X: 5e-324, Y: -1e300, T: 99},
		{User: 1, X: negZero, Y: 1, T: 1},
		{User: 2, X: -math.MaxFloat64, Y: math.SmallestNonzeroFloat64, T: 2},
	}
	for _, l := range cases {
		frame := AppendLocation(nil, l)
		got, err := parseLocation(frame)
		if err != nil {
			t.Fatalf("parse %+v: %v", l, err)
		}
		if got != l {
			t.Fatalf("round trip: got %+v want %+v", got, l)
		}
		if again := AppendLocation(nil, got); !bytes.Equal(frame, again) {
			t.Fatalf("%+v: re-encode differs:\n got %x\nwant %x", l, again, frame)
		}
	}
	// Non-finite coordinates encode (IEEE path) but the parser rejects
	// them.
	for _, bad := range []LocationUpdate{{X: math.NaN()}, {Y: math.Inf(1)}} {
		if _, err := parseLocation(AppendLocation(nil, bad)); err == nil {
			t.Fatalf("non-finite location %+v parsed", bad)
		}
	}
}

func TestServiceCallRoundTrip(t *testing.T) {
	cases := []ServiceCall{
		mkCall(),
		{User: 7, X: 100.25, Y: -50.5, T: 1234, Service: "weather", Data: map[string]string{"q": "now"}},
		{User: 0, X: 0, Y: 0, T: 0, Service: "s", Traceparent: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"},
		{User: -3, X: math.Pi, Y: 2, T: -7, Service: "täxi"},
		{User: math.MinInt64, X: -5e-324, Y: 1e-300, T: math.MaxInt64, Service: "αβ γ=δ&ε",
			Data: map[string]string{"a b": "c&d", "ключ": "значение", "~": "="}},
		{User: 1, X: math.Copysign(0, -1), Y: math.Copysign(0, -1), T: 1, Service: "s"},
		{User: 1, X: -1e300, Y: math.MaxFloat64, T: 1, Service: "s", Data: map[string]string{"k": ""}},
	}
	for _, c := range cases {
		frame, err := AppendServiceCall(nil, c)
		if err != nil {
			t.Fatalf("encode %+v: %v", c, err)
		}
		got, err := parseServiceCall(frame)
		if err != nil {
			t.Fatalf("parse %+v: %v", c, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, c)
		}
		again, err := AppendServiceCall(nil, got)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", got, err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("%+v: re-encode differs:\n got %x\nwant %x", c, again, frame)
		}
	}
	if _, err := AppendServiceCall(nil, ServiceCall{User: 1}); err == nil {
		t.Fatal("empty service encoded")
	}
	for _, bad := range []ServiceCall{{X: math.NaN(), Service: "s"}, {Y: math.Inf(-1), Service: "s"}} {
		frame, err := AppendServiceCall(nil, bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parseServiceCall(frame); err == nil {
			t.Fatalf("non-finite service call %+v parsed", bad)
		}
	}
}

func TestDecisionRoundTrip(t *testing.T) {
	cases := []DecisionFrame{
		{},
		{Forwarded: true, Generalized: true, HKAnonymity: true, Unlinked: true,
			MatchedLBQID: "home", TraceID: "0123456789abcdef0123456789abcdef", Pseudonym: "p-9",
			HasContext: true,
			Context: geo.STBox{
				Area: geo.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4},
				Time: geo.Interval{Start: 5, End: 6},
			}},
		{Suppressed: true, AtRisk: true, QIDExposed: true, DegradedReason: "outbox saturated"},
		{Degraded: true, HasContext: true,
			Context: geo.STBox{
				Area: geo.Rect{MinX: math.Pi, MinY: 0, MaxX: 4, MaxY: 1},
				Time: geo.Interval{Start: -1, End: 1},
			}},
	}
	for _, d := range cases {
		frame := AppendDecision(nil, d)
		got, err := parseDecision(frame)
		if err != nil {
			t.Fatalf("parse %+v: %v", d, err)
		}
		if got != d {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, d)
		}
	}
}

// TestFixedCoordSelection pins the flag policy: exact fixed-point
// representables use the compact path, everything else (including
// negative zero, whose sign only IEEE bits preserve) escapes to IEEE.
func TestFixedCoordSelection(t *testing.T) {
	fixed := []float64{0, 1, -1, 100.25, -0.5, 1 << 30, math.Ldexp(1, -20)}
	for _, v := range fixed {
		if _, ok := fixedCoord(v); !ok {
			t.Errorf("fixedCoord(%g) = not fixed, want fixed", v)
		}
	}
	ieee := []float64{math.Copysign(0, -1), math.Pi, 1e300, 5e-324, math.NaN(), math.Inf(1), math.Ldexp(1, -21)}
	for _, v := range ieee {
		if _, ok := fixedCoord(v); ok {
			t.Errorf("fixedCoord(%g) = fixed, want IEEE escape", v)
		}
	}

	frame := AppendLocation(nil, LocationUpdate{User: 1, X: 100.25, Y: -50.5, T: 1})
	if frame[4]&FlagFixedCoords == 0 {
		t.Error("lattice location did not take the fixed-point path")
	}
	frame = AppendLocation(nil, LocationUpdate{User: 1, X: math.Pi, Y: 0, T: 1})
	if frame[4]&FlagFixedCoords != 0 {
		t.Error("irrational location took the fixed-point path")
	}
}

// TestBinaryParseRejectsMalformed feeds the parser a gauntlet of
// header, varint, length and canonicality abuse on service-call frames,
// which carry every payload field kind; every case must fail cleanly.
func TestBinaryParseRejectsMalformed(t *testing.T) {
	good, err := AppendServiceCall(nil, mkCall())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mutate(b)
	}
	cases := map[string][]byte{
		"empty":           {},
		"short header":    good[:5],
		"bad magic":       corrupt(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":     corrupt(func(b []byte) []byte { b[2] = 9; return b }),
		"unknown flags":   corrupt(func(b []byte) []byte { b[4] |= 0x80; return b }),
		"truncated body":  good[:len(good)-3],
		"trailing bytes":  append(append([]byte(nil), good...), 0xff),
		"length too big":  corrupt(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[5:9], 1<<28); return b }),
		"length over max": corrupt(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[5:9], MaxFrameBytes+1); return b }),
		"length lies short": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[5:9], binary.LittleEndian.Uint32(b[5:9])-1)
			return b
		}),
		"wrong type":     corrupt(func(b []byte) []byte { b[3] = byte(FrameLocation); return b }),
		"retired type 1": corrupt(func(b []byte) []byte { b[3] = 1; return b }),
		"retired type 2": corrupt(func(b []byte) []byte { b[3] = 2; return b }),
	}
	for name, frame := range cases {
		if _, err := parseServiceCall(frame); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}

	// Payload-level abuse, rebuilt by hand around the real header.
	frame := func(p []byte) []byte {
		f, lenAt := appendHeader(nil, FrameServiceCall, 0)
		f = append(f, p...)
		return patchLength(f, lenAt)
	}
	// head writes user, IEEE x and y, t and the service name.
	head := func(x float64, service string) []byte {
		p := appendVarint(nil, 1)
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(x))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(0))
		p = appendVarint(p, 0)
		return appendString(p, service)
	}
	// body adds an empty traceparent and then tail (the data map).
	body := func(tail []byte) []byte {
		return append(appendString(head(0, "s"), ""), tail...)
	}
	payloadCases := map[string][]byte{
		"non-minimal varint": frame(body([]byte{0x80, 0x00})), // data count 0 in two bytes
		"varint too long": frame(body([]byte{
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})),
		"varint overflows": frame(body([]byte{
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})),
		"string over-read": frame(func() []byte {
			p := head(0, "s")
			p = appendUvarint(p, 1000) // traceparent claims 1000 bytes
			return append(p, 't')
		}()),
		"truncated coordinate": frame(append(appendVarint(nil, 1), 0, 0, 0)),
		"data count lies":      frame(body(appendUvarint(nil, 100))),
		"data value over-read": frame(func() []byte {
			p := body(appendUvarint(nil, 1))
			p = appendString(p, "k")
			return appendUvarint(p, 50)
		}()),
		"empty data key": frame(func() []byte {
			p := body(appendUvarint(nil, 1))
			p = appendString(p, "")
			return appendString(p, "v")
		}()),
		"unsorted data keys": frame(func() []byte {
			p := body(appendUvarint(nil, 2))
			p = appendString(p, "b")
			p = appendString(p, "1")
			p = appendString(p, "a")
			return appendString(p, "2")
		}()),
		"duplicate data keys": frame(func() []byte {
			p := body(appendUvarint(nil, 2))
			p = appendString(p, "a")
			p = appendString(p, "1")
			p = appendString(p, "a")
			return appendString(p, "2")
		}()),
		"trailing payload": frame(body(append(appendUvarint(nil, 0), 0xde, 0xad))),
		"empty service":    frame(append(appendString(head(0, ""), ""), 0)),
		"nan coordinate":   frame(append(appendString(head(math.NaN(), "s"), ""), 0)),
	}
	for name, frame := range payloadCases {
		if _, err := parseServiceCall(frame); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
	// The hand-built body is itself well-formed, so each case above
	// fails for its own abuse.
	if _, err := parseServiceCall(frame(body(appendUvarint(nil, 0)))); err != nil {
		t.Fatalf("well-formed hand-built call rejected: %v", err)
	}

	// Fixed-point coordinate out of the exact-integer range.
	f, lenAt := appendHeader(nil, FrameLocation, FlagFixedCoords)
	f = appendVarint(f, 1)
	f = appendVarint(f, coordMaxAbs+1)
	f = appendVarint(f, 0)
	f = appendVarint(f, 0)
	f = patchLength(f, lenAt)
	if _, err := parseLocation(f); err == nil {
		t.Error("out-of-range fixed-point coordinate parsed")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var frames []byte
	var want []any
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		switch i % 4 {
		case 0:
			l := LocationUpdate{User: int64(i), X: float64(rng.Intn(1000)) / 4, Y: -float64(i), T: int64(i * 10)}
			frames = AppendLocation(frames, l)
			want = append(want, l)
		case 1:
			c := ServiceCall{User: int64(i), X: rng.Float64(), Y: rng.Float64(), T: int64(i), Service: "svc", Data: map[string]string{"i": "x"}}
			var err error
			frames, err = AppendServiceCall(frames, c)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, c)
		case 2:
			c := mkCall()
			c.User, c.X = int64(i), math.Copysign(0, -1)
			var err error
			frames, err = AppendServiceCall(frames, c)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, c)
		case 3:
			d := DecisionFrame{Forwarded: i%8 == 3, Pseudonym: "p", TraceID: "t"}
			frames = AppendDecision(frames, d)
			want = append(want, d)
		}
	}
	batch, err := AppendBatch(nil, len(want), frames)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewBatchDecoder(batch)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Count() != len(want) {
		t.Fatalf("count %d want %d", dec.Count(), len(want))
	}
	i := 0
	for dec.Next() {
		var got any
		var err error
		switch dec.Type() {
		case FrameLocation:
			got, err = ParseLocationPayload(dec.Flags(), dec.Payload())
		case FrameServiceCall:
			got, err = ParseServiceCallPayload(dec.Flags(), dec.Payload())
		case FrameDecision:
			got, err = ParseDecisionPayload(dec.Flags(), dec.Payload())
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

	// Nested batches are rejected.
	nested, err := AppendBatch(nil, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	dec, err = NewBatchDecoder(nested)
	if err != nil {
		t.Fatal(err)
	}
	for dec.Next() {
	}
	if dec.Err() == nil {
		t.Fatal("nested batch decoded")
	}

	// A declared count the payload cannot hold is rejected up front.
	lie, err := AppendBatch(nil, 1000, frames[:20])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchDecoder(lie); err == nil {
		t.Fatal("lying batch count accepted")
	}
}

// TestBatchDecodeAllocBudget guards the server-side batch ingest path:
// walking a batch and parsing every location payload allocates nothing.
func TestBatchDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	var frames []byte
	const n = 256
	for i := 0; i < n; i++ {
		frames = AppendLocation(frames, LocationUpdate{User: int64(i % 16), X: float64(i) / 4, Y: float64(i) / 2, T: int64(i)})
	}
	batch, err := AppendBatch(nil, n, frames)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dec, err := NewBatchDecoder(batch)
		if err != nil {
			t.Fatal(err)
		}
		for dec.Next() {
			if _, err := ParseLocationPayload(dec.Flags(), dec.Payload()); err != nil {
				t.Fatal(err)
			}
		}
		if err := dec.Err(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batch location decode allocates %.1f/op, want 0", allocs)
	}
}
