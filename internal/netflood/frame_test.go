package netflood

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"lhg/internal/graph"
)

// TestFrameRoundTrip encodes every frame kind with extreme field values and
// awkward payloads, decodes it back, and re-encodes the result: the frame
// and its bytes must both survive.
func TestFrameRoundTrip(t *testing.T) {
	msg := func(src, seq, hops, budget int, payload string) *Message {
		return &Message{Src: src, Seq: seq, Hops: hops, Budget: budget, Payload: payload}
	}
	for _, tc := range []struct {
		name string
		f    frame
	}{
		{"hello zero", frame{Kind: "hello"}},
		{"hello negative", frame{Kind: "hello", From: -7}},
		{"hello max", frame{Kind: "hello", From: math.MaxInt}},
		{"hello min", frame{Kind: "hello", From: math.MinInt}},
		{"msg zero", frame{Kind: "msg", Msg: msg(0, 0, 0, 0, "")}},
		{"msg negative", frame{Kind: "msg", From: -1, Msg: msg(-3, -1, -2, -9, "x")}},
		{"msg max", frame{Kind: "msg", From: math.MaxInt, Msg: msg(math.MaxInt, math.MaxInt, math.MaxInt, math.MaxInt, "max")}},
		{"msg min", frame{Kind: "msg", From: math.MinInt, Msg: msg(math.MinInt, math.MinInt, math.MinInt, math.MinInt, "min")}},
		{"msg non-utf8", frame{Kind: "msg", Msg: msg(1, 2, 3, 4, "\xff\xfe\x00\x80 bytes")}},
		// Kind byte and five one-byte varints: a body of exactly maxFrame.
		{"msg at limit", frame{Kind: "msg", Msg: msg(0, 0, 0, 0, strings.Repeat("p", maxFrame-6))}},
		{"ack zero", frame{Kind: "ack", Msg: msg(0, 0, 0, 0, "")}},
		{"ack negative", frame{Kind: "ack", From: -4, Msg: msg(-1, -2, 0, 0, "")}},
		{"ack max", frame{Kind: "ack", Msg: msg(math.MaxInt, math.MaxInt, 0, 0, "")}},
		{"ack min", frame{Kind: "ack", Msg: msg(math.MinInt, math.MinInt, 0, 0, "")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire, err := encodeFrame(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := readFrame(bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.f) {
				t.Fatalf("decoded %+v (msg %+v), want %+v (msg %+v)", got, got.Msg, tc.f, tc.f.Msg)
			}
			again, err := encodeFrame(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, wire) {
				t.Fatalf("re-encoded %x, want %x", again, wire)
			}
		})
	}
}

// TestFrameCodecRejects pins the frames that must end a link: a bad kind,
// a truncated or non-minimal field, trailing bytes, and an oversized length
// prefix, plus the frames the encoder refuses to build.
func TestFrameCodecRejects(t *testing.T) {
	body := func(b ...byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(b)))
		return append(out, b...)
	}
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"empty body", body()},
		{"unknown kind 0", body(0, 0)},
		{"unknown kind 4", body(4, 0)},
		{"hello without from", body(kindHello)},
		{"hello trailing byte", body(kindHello, 0, 0)},
		{"ack without seq", body(kindAck, 0, 2)},
		{"ack trailing byte", body(kindAck, 0, 2, 4, 9)},
		{"msg without budget", body(kindMsg, 0, 2, 4, 6)},
		{"truncated varint", body(kindHello, 0x80)},
		{"non-minimal varint", body(kindHello, 0x80, 0x00)},
		{"varint past 64 bits", body(kindHello, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)},
		{"oversized length", binary.BigEndian.AppendUint32(nil, maxFrame+1)},
		{"short body", append(binary.BigEndian.AppendUint32(nil, 3), kindHello)},
	} {
		if f, err := readFrame(bytes.NewReader(tc.wire)); err == nil {
			t.Errorf("%s: decoded %+v, want an error", tc.name, f)
		}
	}
	for _, f := range []frame{
		{Kind: "bogus"},
		{Kind: "msg", Msg: &Message{Payload: strings.Repeat("x", maxFrame)}},
	} {
		if _, err := encodeFrame(f); err == nil {
			t.Errorf("encodeFrame(%+v) must fail", f)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic nor allocate much past maxFrame, and every frame it accepts must
// re-encode to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []frame{
		{Kind: "hello", From: 3},
		{Kind: "msg", From: 1, Msg: &Message{Src: 2, Seq: 40, Hops: 1, Budget: 5, Payload: "seed"}},
		{Kind: "ack", Msg: &Message{Src: -1, Seq: math.MaxInt}},
	} {
		wire, err := encodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 2, kindHello, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := readFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The slack covers the Message and the runtime's own bookkeeping
		// between the two snapshots.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrame+1<<16 {
			t.Fatalf("readFrame allocated %d bytes for a %d-byte input", grew, len(data))
		}
		if err != nil {
			return
		}
		wire, err := encodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded %+v but cannot re-encode it: %v", fr, err)
		}
		if !bytes.HasPrefix(data, wire) {
			t.Fatalf("re-encoded %x, input began %x", wire, data[:min(len(data), len(wire))])
		}
	})
}

// TestBroadcastPayloadLimit: a payload that fits a frame with the longest
// header crosses the link; one byte more is refused at Broadcast instead
// of becoming a frame no link can carry.
func TestBroadcastPayloadLimit(t *testing.T) {
	c, err := Start(graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Broadcast(0, strings.Repeat("x", maxFrame-maxHeader+1)); err == nil {
		t.Fatal("a payload past the frame limit must be refused")
	}
	if _, err := c.Broadcast(0, strings.Repeat("x", maxFrame-maxHeader)); err != nil {
		t.Fatal(err)
	}
	if !c.WaitDelivered([]int{1}, 1, 10*time.Second) {
		t.Fatal("the largest payload that fits never reached node 1")
	}
}
