package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/membership"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// FuzzEnvelopeRoundTrip feeds arbitrary bytes to the frame decoder. Three
// properties must hold for every input:
//
//  1. Decoding never panics and never allocates unboundedly — corrupt
//     frames fail with an ErrMalformed error (the test harness itself
//     catches panics and out-of-memory aborts).
//  2. Decoded under smallBounds, an input either fails with ErrMalformed
//     or decodes to exactly its unbounded decoding, with every id in
//     range.
//  3. Any input that DOES decode re-encodes to an envelope that decodes
//     to the same value: decode(encode(decode(b))) == decode(b). The
//     byte strings may differ (varints accept non-minimal forms) but the
//     value must be stable.
//  4. A decoded result's answering node and a decoded publish's
//     publisher are the envelope's sender: neither is on the wire.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	for _, env := range sampleEnvelopes() {
		b, err := AppendEnvelope(nil, env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{tagResult, 0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	// The generation-8 result and publish layouts, byte by byte: sender 2,
	// query id 7, hops 2, docs 1 and 3; sender 2, doc 5, category 3.
	f.Add([]byte{tagResult, 4, 7, 4, 2, 2, 6})
	f.Add([]byte{tagPublish, 4, 10, 6})
	// The same messages in the generation-7 layouts, which also carried
	// the answering node, the publisher and the dummy flag: hostile input
	// now that the handshake refuses generation 7.
	f.Add([]byte{tagResult, 4, 7, 4, 4, 2, 2, 6})
	f.Add([]byte{tagPublish, 4, 10, 6, 4, 1})
	f.Add(preamble[:])
	// One id of each kind just outside smallBounds.
	for _, env := range []Envelope{
		{Msg: protocol.QueryMsg{Origin: model.NodeID(smallBounds.Nodes)}},
		{Msg: membership.Ack{Moves: []membership.Move{{Entry: protocol.DCRTEntry{Cluster: model.ClusterID(smallBounds.Clusters)}}}}},
		{Msg: protocol.PublishMsg{Category: catalog.CategoryID(smallBounds.Categories)}},
		{Msg: protocol.ResultMsg{Docs: []catalog.DocID{catalog.DocID(smallBounds.Docs)}}},
	} {
		b, err := AppendEnvelope(nil, env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Frames generations 6 and 7 withdrew: each must fail to decode.
	for _, b := range append(generation5Frames(f), generation6Frames()...) {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := DecodeEnvelope(b)
		benv, berr := decodeEnvelope(b, nil, smallBounds)
		if berr == nil {
			if err != nil || env.From != benv.From || !equivalentMsg(env.Msg, benv.Msg) {
				t.Fatalf("bounded decode %+v differs from unbounded %+v, %v", benv, env, err)
			}
			for _, id := range idFields(benv, smallBounds) {
				if id.v < 0 || id.v >= id.bound {
					t.Fatalf("bounded decode let %s %d through (bound %d)", id.what, id.v, id.bound)
				}
			}
		} else if !errors.Is(berr, ErrMalformed) {
			t.Fatalf("bounded decode error %v does not wrap ErrMalformed", berr)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("decode error %v does not wrap ErrMalformed", err)
			}
			return // corrupt input rejected cleanly — property 1 holds
		}
		reenc, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("decoded envelope %+v does not re-encode: %v", env, err)
		}
		env2, err := DecodeEnvelope(reenc)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if env.From != env2.From || !equivalentMsg(env.Msg, env2.Msg) {
			t.Fatalf("round trip unstable:\n first = %+v\nsecond = %+v", env, env2)
		}
		switch m := env.Msg.(type) {
		case protocol.ResultMsg:
			if m.From != env.From {
				t.Fatalf("result answered by %d in an envelope from %d", m.From, env.From)
			}
		case protocol.PublishMsg:
			if m.Publisher != env.From {
				t.Fatalf("publish by %d in an envelope from %d", m.Publisher, env.From)
			}
		}
	})
}

// Frames captured from the pre-wire encoding/gob transport (an announce
// hello and its address-book reply): what a stale binary would send,
// kept as hostile input now that nothing decodes gob.
const (
	gobHelloFrame = "267f03010108656e76656c6f706501ff80000102010446726f6d01040001034d736701100000004eff80010e012270327073686172652f696e7465726e616c2f6c6976656e65742e68656c6c6f4d7367ff810301010868656c6c6f4d736701ff8200010201024944010400010441646472010c00000017ff8213010e010e3132372e302e302e313a363131370000"
	gobBookFrame  = "267f03010108656e76656c6f706501ff80000102010446726f6d01040001034d7367011000000046ff80010e012170327073686172652f696e7465726e616c2f6c6976656e65742e626f6f6b4d7367ff8303010107626f6f6b4d736701ff840001010104426f6f6b01ff8600000027ff85040101176d61705b6d6f64656c2e4e6f646549445d737472696e6701ff86000104010c000017ff841301010e0e3132372e302e302e313a363131370000"
)

// FuzzAcceptStream feeds arbitrary bytes to the accept path — what any
// TCP client can send a listening node: a stream's opening bytes, then
// frames. It never panics or allocates unboundedly (a frame claims at
// most MaxFrameBytes), and it yields a Reader, and so an envelope, only
// when the first five bytes are the exact preamble.
func FuzzAcceptStream(f *testing.F) {
	var stream bytes.Buffer
	stream.Write(preamble[:])
	w := bufio.NewWriter(&stream)
	for _, env := range sampleEnvelopes() {
		if err := WriteEnvelope(w, env); err != nil {
			f.Fatal(err)
		}
	}
	w.Flush()
	f.Add(stream.Bytes())
	f.Add(preamble[:])
	f.Add(preamble[:3])
	f.Add([]byte{'P', '2', 'P', 'W', Version + 1, 1, tagQuery})
	for _, frame := range []string{gobHelloFrame, gobBookFrame} {
		raw, err := hex.DecodeString(frame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(append(preamble[:len(preamble):len(preamble)], raw...))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		var acked bytes.Buffer
		r, err := AcceptStream(bufio.NewReader(bytes.NewReader(b)), &acked, Unbounded)
		if opened := bytes.HasPrefix(b, preamble[:]); (err == nil) != opened {
			t.Fatalf("AcceptStream error %v on opening bytes %q", err, b[:min(len(b), len(preamble))])
		}
		if err != nil {
			if acked.Len() != 0 {
				t.Fatalf("rejected stream was acked with %v", acked.Bytes())
			}
			return
		}
		if !bytes.Equal(acked.Bytes(), []byte{Version}) {
			t.Fatalf("accepted stream acked %v, want [%d]", acked.Bytes(), Version)
		}
		for {
			env, err := r.Next()
			if err != nil {
				return
			}
			if c, ok := env.Msg.(Chunk); ok {
				c.Release()
			}
		}
	})
}
