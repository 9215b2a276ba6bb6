package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"p2pshare/internal/catalog"
	"p2pshare/internal/membership"
	"p2pshare/internal/model"
	"p2pshare/internal/protocol"
)

// sampleEnvelopes covers every message type, including empty/absent
// collections.
func sampleEnvelopes() []Envelope {
	return []Envelope{
		{From: 3, Msg: protocol.QueryMsg{ID: 1<<40 + 17, Category: 12, Want: 5, Origin: 3, Hops: 2, Entry: true}},
		{From: 0, Msg: protocol.QueryMsg{}},
		{From: 9, Msg: protocol.ResultMsg{ID: 42, Docs: []catalog.DocID{1, 5, 999999}, Hops: 4, From: 9}},
		{From: 9, Msg: protocol.ResultMsg{ID: 43, Hops: 1, From: 9}},
		{From: 2, Msg: protocol.PublishMsg{Doc: 77, Category: 3, Publisher: 2, Dummy: true}},
		{From: 5, Msg: protocol.PublishAckMsg{
			Doc: 77, Category: 3,
			Entry:    protocol.DCRTEntry{Cluster: 2, MoveCounter: 12},
			Accepted: true,
			Members:  []model.NodeID{1, 2, 3, 4, 5, 6, 7, 8},
		}},
		{From: 5, Msg: protocol.PublishAckMsg{Doc: 1, Category: 0, Entry: protocol.DCRTEntry{Cluster: 4}}},
		{From: 11, Msg: Hello{ID: 11, Addr: "127.0.0.1:49321"}},
		{From: 11, Msg: Hello{}},
		{From: 1, Msg: Book{Book: map[model.NodeID]string{
			0: "127.0.0.1:7000", 1: "127.0.0.1:7001", 19: "10.0.0.3:9999",
		}}},
		{From: 1, Msg: Book{Book: map[model.NodeID]string{}}},
		{From: 1, Msg: Book{
			Book: map[model.NodeID]string{0: "127.0.0.1:7000"},
			Dead: map[model.NodeID]uint64{7: 3, 9: 0},
		}},
		{From: 4, Msg: membership.Ping{Seq: 99, Addr: "127.0.0.1:7004", Updates: []membership.Update{
			{ID: 2, Addr: "127.0.0.1:7002", State: membership.Suspect, Inc: 5},
			{ID: 8, State: membership.Dead, Inc: 0},
		}, Moves: []membership.Move{
			{Category: 5, Entry: protocol.DCRTEntry{Cluster: 0, MoveCounter: 3}},
			{Category: 9, Entry: protocol.DCRTEntry{Cluster: 1, MoveCounter: 1}},
		}}},
		{From: 4, Msg: membership.Ping{Seq: 1}},
		{From: 2, Msg: membership.Ack{Seq: 99, Target: 4, Updates: []membership.Update{
			{ID: 2, Addr: "127.0.0.1:7002", State: membership.Alive, Inc: 6},
		}, Moves: []membership.Move{
			{Category: 0, Entry: protocol.DCRTEntry{Cluster: 2, MoveCounter: 1 << 20}},
		}}},
		{From: 2, Msg: membership.Ack{Seq: 100, Target: 2}},
		{From: 4, Msg: membership.PingReq{Seq: 7, Target: 3, Addr: "127.0.0.1:7003"}},
		{From: 4, Msg: membership.PingReq{Seq: 8, Target: 3, Addr: "127.0.0.1:7003", Updates: []membership.Update{
			{ID: 3, Addr: "127.0.0.1:7003", State: membership.Suspect, Inc: 2},
			{ID: 6, State: membership.Left, Inc: 4},
		}, Moves: []membership.Move{
			{Category: 12, Entry: protocol.DCRTEntry{Cluster: 3, MoveCounter: 7}},
		}}},
		{From: 6, Msg: membership.Leave{ID: 6, Inc: 4}},
		{From: 3, Msg: LeaderLoad{
			Epoch: 12, Cluster: 2, Aggregated: true,
			Hits:  map[catalog.CategoryID]int64{0: 14, 3: 2},
			Units: map[catalog.CategoryID]float64{0: 1.5, 3: 0.25},
		}},
		{From: 3, Msg: LeaderLoad{Epoch: 1}},
		{From: 7, Msg: ManifestReq{Doc: 42, Xfer: 1<<33 + 5, Origin: 7, TTL: 2}},
		{From: 7, Msg: ManifestReq{}},
		{From: 8, Msg: Manifest{
			Doc: 42, Xfer: 9, Size: 130<<10 + 17, ChunkSize: 64 << 10,
			Hashes: bytes.Repeat([]byte{0xAB, 0x12}, 48), // 3 chunks * 32 bytes
		}},
		{From: 8, Msg: Manifest{Doc: 3, Xfer: 1, Missing: true}},
		{From: 7, Msg: ChunkReq{Doc: 42, Xfer: 9, First: 4, Count: 32}},
		{From: 7, Msg: ChunkReq{}},
		{From: 8, Msg: Chunk{Doc: 42, Xfer: 9, Index: 4, Data: []byte{1, 2, 3, 0, 255, 7}}},
		{From: 8, Msg: Chunk{Doc: 42, Xfer: 9, Index: 5, Missing: true}},
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	for i, env := range sampleEnvelopes() {
		b, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("envelope %d (%T): encode: %v", i, env.Msg, err)
		}
		got, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatalf("envelope %d (%T): decode: %v", i, env.Msg, err)
		}
		if got.From != env.From {
			t.Errorf("envelope %d: From = %d, want %d", i, got.From, env.From)
		}
		if !equivalentMsg(got.Msg, env.Msg) {
			t.Errorf("envelope %d (%T): round trip = %+v, want %+v", i, env.Msg, got.Msg, env.Msg)
		}
	}
}

// equivalentMsg compares messages treating nil and empty collections as
// equal (the codec does not preserve that distinction).
func equivalentMsg(a, b any) bool {
	if r, ok := a.(protocol.ResultMsg); ok && len(r.Docs) == 0 {
		r.Docs = nil
		a = r
	}
	if r, ok := b.(protocol.ResultMsg); ok && len(r.Docs) == 0 {
		r.Docs = nil
		b = r
	}
	if p, ok := a.(protocol.PublishAckMsg); ok && len(p.Members) == 0 {
		p.Members = nil
		a = p
	}
	if p, ok := b.(protocol.PublishAckMsg); ok && len(p.Members) == 0 {
		p.Members = nil
		b = p
	}
	a, b = normalizeMsg(a), normalizeMsg(b)
	return reflect.DeepEqual(a, b)
}

// normalizeMsg maps every empty collection to its canonical form.
func normalizeMsg(m any) any {
	switch v := m.(type) {
	case Book:
		if len(v.Book) == 0 {
			v.Book = map[model.NodeID]string{}
		}
		if len(v.Dead) == 0 {
			v.Dead = nil
		}
		return v
	case membership.Ping:
		v.Updates, v.Moves = normalizePiggyback(v.Updates, v.Moves)
		return v
	case membership.Ack:
		v.Updates, v.Moves = normalizePiggyback(v.Updates, v.Moves)
		return v
	case membership.PingReq:
		v.Updates, v.Moves = normalizePiggyback(v.Updates, v.Moves)
		return v
	case LeaderLoad:
		if len(v.Hits) == 0 {
			v.Hits = nil
		}
		if len(v.Units) == 0 {
			v.Units = nil
		}
		return v
	case Manifest:
		if len(v.Hashes) == 0 {
			v.Hashes = nil
		}
		return v
	case Chunk:
		if len(v.Data) == 0 {
			v.Data = nil
		}
		return v
	}
	return m
}

// normalizePiggyback maps empty piggyback lists to nil.
func normalizePiggyback(us []membership.Update, mvs []membership.Move) ([]membership.Update, []membership.Move) {
	if len(us) == 0 {
		us = nil
	}
	if len(mvs) == 0 {
		mvs = nil
	}
	return us, mvs
}

// liveTags lists every tag the codec writes, retired ones excluded.
var liveTags = []byte{tagQuery, tagResult, tagPublish, tagPublishAck, tagHello, tagBook,
	tagPing, tagAck, tagPingReq, tagLeave, tagLeaderLoad,
	tagManifestReq, tagManifest, tagChunkReq, tagChunk}

// TestSamplesCoverEveryTag: sampleEnvelopes — the round-trip table and
// both fuzz targets' seeds — writes every live tag and no other, and
// each probe kind at least once with both piggyback lists non-empty.
func TestSamplesCoverEveryTag(t *testing.T) {
	seen := map[byte]bool{}
	full := map[string]bool{}
	for _, env := range sampleEnvelopes() {
		b, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		seen[b[0]] = true
		switch m := env.Msg.(type) {
		case membership.Ping:
			full["ping"] = full["ping"] || len(m.Updates) > 0 && len(m.Moves) > 0
		case membership.Ack:
			full["ack"] = full["ack"] || len(m.Updates) > 0 && len(m.Moves) > 0
		case membership.PingReq:
			full["ping-req"] = full["ping-req"] || len(m.Updates) > 0 && len(m.Moves) > 0
		}
	}
	for _, tag := range liveTags {
		if !seen[tag] {
			t.Errorf("no sample writes live tag %d", tag)
		}
		delete(seen, tag)
	}
	for tag := range seen {
		t.Errorf("a sample writes tag %d, which is not live", tag)
	}
	for _, kind := range []string{"ping", "ack", "ping-req"} {
		if !full[kind] {
			t.Errorf("no %s sample carries both liveness updates and DCRT moves", kind)
		}
	}
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	// Every strict prefix of a valid frame must error, never panic, and
	// every error here is about the frame's bytes: ErrMalformed.
	for _, env := range sampleEnvelopes() {
		b, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := DecodeEnvelope(b[:cut]); !errors.Is(err, ErrMalformed) {
				// A prefix that still parses completely is a corrupt
				// frame the length prefix would normally exclude; the
				// decoder must at least not invent trailing data.
				t.Errorf("%T truncated to %d bytes decoded without error", env.Msg, cut)
			}
		}
		// Trailing garbage is rejected too.
		if _, err := DecodeEnvelope(append(append([]byte{}, b...), 0xAA)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%T with trailing byte decoded without error", env.Msg)
		}
	}
	// Unknown tag.
	if _, err := DecodeEnvelope([]byte{99, 0}); !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "unknown message tag") {
		t.Errorf("unknown tag: err = %v", err)
	}
	// A list count far beyond the payload must fail before allocating.
	huge := []byte{tagResult, 0 /*from*/, 1 /*id*/, 0 /*hops*/, 0 /*from*/, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	if _, err := DecodeEnvelope(huge); !errors.Is(err, ErrMalformed) {
		t.Error("oversized doc count decoded without error")
	}
	if _, err := DecodeEnvelope(nil); !errors.Is(err, ErrMalformed) {
		t.Error("empty frame decoded without error")
	}
	// Content-frame specific corruption: a manifest whose hash blob is
	// not whole sha256 hashes, and negative transfer geometry. Both can
	// only come from corruption or a hostile peer.
	badManifest, err := AppendEnvelope(nil, Envelope{From: 1, Msg: Manifest{
		Doc: 7, Xfer: 1, Size: 96, ChunkSize: 32, Hashes: make([]byte, 96),
	}})
	if err != nil {
		t.Fatal(err)
	}
	trunc := append([]byte{}, badManifest...)
	// Shrink the hash blob length prefix from 96 to 95: still inside
	// the payload, no longer a whole number of hashes.
	for i := range trunc {
		if trunc[i] == 96 && i > 4 {
			trunc[i] = 95
			trunc = trunc[:len(trunc)-1]
			break
		}
	}
	if _, err := DecodeEnvelope(trunc); !errors.Is(err, ErrMalformed) {
		t.Error("ragged manifest hash blob decoded without error")
	}
	negReq, err := AppendEnvelope(nil, Envelope{From: 1, Msg: ChunkReq{Doc: 7, Xfer: 1, First: -1, Count: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(negReq); !errors.Is(err, ErrMalformed) {
		t.Error("negative chunk-req window decoded without error")
	}
	negChunk, err := AppendEnvelope(nil, Envelope{From: 1, Msg: Chunk{Doc: 7, Xfer: 1, Index: -2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(negChunk); !errors.Is(err, ErrMalformed) {
		t.Error("negative chunk index decoded without error")
	}
	negTTL, err := AppendEnvelope(nil, Envelope{From: 1, Msg: ManifestReq{Doc: 7, Xfer: 1, Origin: 1, TTL: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(negTTL); !errors.Is(err, ErrMalformed) {
		t.Error("negative manifest-req ttl decoded without error")
	}
}

// generation5Frames are frames only a generation-5 peer wrote: the
// replicate frame (tag 18) with and without hashes, and a leader-load
// carrying the serve total and the under-loaded-member list that
// generation 6 dropped.
func generation5Frames(t testing.TB) [][]byte {
	replicate := func(chunks int) []byte {
		b := appendInt([]byte{18}, 6)            // tag, sender
		b = appendInt(b, 42)                     // doc
		b = appendInt(b, int64(chunks)*(64<<10)) // size
		b = appendInt(b, 64<<10)                 // chunk size
		return appendBytes(b, make([]byte, chunks*hashSize))
	}
	load, err := AppendEnvelope(nil, Envelope{From: 4, Msg: LeaderLoad{Epoch: 13, Cluster: 1}})
	if err != nil {
		t.Fatal(err)
	}
	load = appendUint(appendInt(load, 512), 3) // served, member count
	for _, id := range []int64{4, 9, 17} {
		load = appendInt(load, id)
	}
	return [][]byte{replicate(3), replicate(0), load}
}

// generation6Frames are frames only a generation-6 peer wrote: a move
// (tag 12), a meta-update (tag 13) with two rows, and a ping whose
// piggyback ends after the liveness list, without the DCRT list.
func generation6Frames() [][]byte {
	move := appendInt([]byte{12}, 3) // tag, sender
	move = appendInt(move, 5)        // category
	move = appendInt(move, 2)        // source cluster
	move = appendInt(move, 0)        // destination cluster
	move = appendUint(move, 3)       // move counter
	meta := appendUint(appendInt([]byte{13}, 3), 2)
	for _, row := range [][3]int64{{5, 0, 3}, {9, 1, 1}} {
		meta = appendUint(appendInt(appendInt(meta, row[0]), row[1]), uint64(row[2]))
	}
	ping := appendInt([]byte{tagPing}, 4) // tag, sender
	ping = appendUint(ping, 99)           // seq
	ping = appendString(ping, "127.0.0.1:7004")
	ping = appendUint(ping, 1)    // one liveness rumor, then no DCRT list
	ping = appendInt(ping, 2)     // id
	ping = appendString(ping, "") // addr
	ping = append(ping, byte(membership.Suspect))
	ping = appendUint(ping, 5) // incarnation
	return [][]byte{move, meta, ping}
}

// TestRetiredFramesRejected pins the withdrawn frame formats: tag 18
// (generation 6 withdrew push replication) and tags 12 and 13
// (generation 7 moved category moves onto the probes' piggyback) decode
// as unknown tags; a generation-5 leader-load has trailing bytes and a
// generation-6 ping lacks its DCRT list. A stray one ends its stream
// like any malformed frame instead of reaching a handler.
func TestRetiredFramesRejected(t *testing.T) {
	for i, frame := range generation5Frames(t) {
		_, err := DecodeEnvelope(frame)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("generation-5 frame %d: err = %v, want ErrMalformed", i, err)
		}
		if i < 2 && !strings.Contains(err.Error(), "unknown message tag 18") {
			t.Fatalf("replicate frame %d: err = %v, want an unknown tag", i, err)
		}
	}
	for i, frame := range generation6Frames() {
		_, err := DecodeEnvelope(frame)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("generation-6 frame %d: err = %v, want ErrMalformed", i, err)
		}
		if tag := frame[0]; i < 2 && !strings.Contains(err.Error(), fmt.Sprintf("unknown message tag %d", tag)) {
			t.Fatalf("generation-6 tag-%d frame: err = %v, want an unknown tag", tag, err)
		}
	}
}

// smallBounds is a deployment shape small enough that arbitrary bytes
// often decode to ids outside it.
var smallBounds = Bounds{Nodes: 5, Clusters: 3, Categories: 7, Docs: 11}

// idField is one id a decoded envelope carries, with the bound its kind
// must respect.
type idField struct {
	what     string
	v, bound int
}

// idFields lists every id env carries — the test-side mirror of the
// decoder's id reads, one case per tag.
func idFields(env Envelope, b Bounds) []idField {
	fs := []idField{{"sender", int(env.From), b.Nodes}}
	node := func(what string, id model.NodeID) { fs = append(fs, idField{what, int(id), b.Nodes}) }
	cluster := func(what string, cl model.ClusterID) { fs = append(fs, idField{what, int(cl), b.Clusters}) }
	cat := func(what string, c catalog.CategoryID) { fs = append(fs, idField{what, int(c), b.Categories}) }
	doc := func(what string, d catalog.DocID) { fs = append(fs, idField{what, int(d), b.Docs}) }
	piggyback := func(us []membership.Update, mvs []membership.Move) {
		for _, u := range us {
			node("update id", u.ID)
		}
		for _, mv := range mvs {
			cat("move category", mv.Category)
			cluster("move cluster", mv.Entry.Cluster)
		}
	}
	switch m := env.Msg.(type) {
	case protocol.QueryMsg:
		cat("category", m.Category)
		node("origin", m.Origin)
	case protocol.ResultMsg:
		node("answering node", m.From)
		for _, d := range m.Docs {
			doc("doc", d)
		}
	case protocol.PublishMsg:
		doc("doc", m.Doc)
		cat("category", m.Category)
		node("publisher", m.Publisher)
	case protocol.PublishAckMsg:
		doc("doc", m.Doc)
		cat("category", m.Category)
		cluster("cluster", m.Entry.Cluster)
		for _, id := range m.Members {
			node("member", id)
		}
	case Hello:
		node("hello id", m.ID)
	case Book:
		for id := range m.Book {
			node("book id", id)
		}
		for id := range m.Dead {
			node("tombstone id", id)
		}
	case membership.Ping:
		piggyback(m.Updates, m.Moves)
	case membership.Ack:
		node("target", m.Target)
		piggyback(m.Updates, m.Moves)
	case membership.PingReq:
		node("target", m.Target)
		piggyback(m.Updates, m.Moves)
	case membership.Leave:
		node("leave id", m.ID)
	case LeaderLoad:
		cluster("cluster", m.Cluster)
		for c := range m.Hits {
			cat("hit category", c)
		}
		for c := range m.Units {
			cat("unit category", c)
		}
	case ManifestReq:
		doc("doc", m.Doc)
		node("origin", m.Origin)
	case Manifest:
		doc("doc", m.Doc)
	case ChunkReq:
		doc("doc", m.Doc)
	case Chunk:
		doc("doc", m.Doc)
	default:
		panic(fmt.Sprintf("idFields: no case for %T", env.Msg))
	}
	return fs
}

// TestDecodeRejectsOutOfRangeIDs places each id field of each tag at the
// edges of smallBounds: bound−1 decodes, bound and −1 are malformed.
func TestDecodeRejectsOutOfRangeIDs(t *testing.T) {
	b := smallBounds
	nodes := func(v int32) []model.NodeID { return []model.NodeID{0, model.NodeID(v)} }
	moves := func(c catalog.CategoryID, cl model.ClusterID) []membership.Move {
		return []membership.Move{{}, {Category: c, Entry: protocol.DCRTEntry{Cluster: cl, MoveCounter: 1}}}
	}
	type idCase struct {
		name  string
		bound int
		env   func(v int32) Envelope // v in the named field, every other id 0
	}
	cases := []idCase{
		{"query/category", b.Categories, func(v int32) Envelope {
			return Envelope{Msg: protocol.QueryMsg{Category: catalog.CategoryID(v)}}
		}},
		{"query/origin", b.Nodes, func(v int32) Envelope { return Envelope{Msg: protocol.QueryMsg{Origin: model.NodeID(v)}} }},
		{"result/from", b.Nodes, func(v int32) Envelope { return Envelope{Msg: protocol.ResultMsg{From: model.NodeID(v)}} }},
		{"result/doc", b.Docs, func(v int32) Envelope {
			return Envelope{Msg: protocol.ResultMsg{Docs: []catalog.DocID{1, catalog.DocID(v)}}}
		}},
		{"publish/doc", b.Docs, func(v int32) Envelope { return Envelope{Msg: protocol.PublishMsg{Doc: catalog.DocID(v)}} }},
		{"publish/category", b.Categories, func(v int32) Envelope {
			return Envelope{Msg: protocol.PublishMsg{Category: catalog.CategoryID(v)}}
		}},
		{"publish/publisher", b.Nodes, func(v int32) Envelope {
			return Envelope{Msg: protocol.PublishMsg{Publisher: model.NodeID(v)}}
		}},
		{"publish-ack/doc", b.Docs, func(v int32) Envelope {
			return Envelope{Msg: protocol.PublishAckMsg{Doc: catalog.DocID(v)}}
		}},
		{"publish-ack/category", b.Categories, func(v int32) Envelope {
			return Envelope{Msg: protocol.PublishAckMsg{Category: catalog.CategoryID(v)}}
		}},
		{"publish-ack/cluster", b.Clusters, func(v int32) Envelope {
			return Envelope{Msg: protocol.PublishAckMsg{Entry: protocol.DCRTEntry{Cluster: model.ClusterID(v)}}}
		}},
		{"publish-ack/member", b.Nodes, func(v int32) Envelope {
			return Envelope{Msg: protocol.PublishAckMsg{Members: nodes(v)}}
		}},
		{"hello/id", b.Nodes, func(v int32) Envelope { return Envelope{Msg: Hello{ID: model.NodeID(v)}} }},
		{"book/id", b.Nodes, func(v int32) Envelope {
			return Envelope{Msg: Book{Book: map[model.NodeID]string{model.NodeID(v): "a"}}}
		}},
		{"book/tombstone", b.Nodes, func(v int32) Envelope {
			return Envelope{Msg: Book{Dead: map[model.NodeID]uint64{model.NodeID(v): 1}}}
		}},
		{"ping/update", b.Nodes, func(v int32) Envelope {
			return Envelope{Msg: membership.Ping{Updates: []membership.Update{{ID: model.NodeID(v)}}}}
		}},
		{"ping/move-category", b.Categories, func(v int32) Envelope {
			return Envelope{Msg: membership.Ping{Moves: moves(catalog.CategoryID(v), 0)}}
		}},
		{"ping/move-cluster", b.Clusters, func(v int32) Envelope {
			return Envelope{Msg: membership.Ping{Moves: moves(0, model.ClusterID(v))}}
		}},
		{"ack/target", b.Nodes, func(v int32) Envelope { return Envelope{Msg: membership.Ack{Target: model.NodeID(v)}} }},
		{"ack/update", b.Nodes, func(v int32) Envelope {
			return Envelope{Msg: membership.Ack{Updates: []membership.Update{{ID: model.NodeID(v)}}}}
		}},
		{"ack/move-category", b.Categories, func(v int32) Envelope {
			return Envelope{Msg: membership.Ack{Moves: moves(catalog.CategoryID(v), 0)}}
		}},
		{"ack/move-cluster", b.Clusters, func(v int32) Envelope {
			return Envelope{Msg: membership.Ack{Moves: moves(0, model.ClusterID(v))}}
		}},
		{"ping-req/target", b.Nodes, func(v int32) Envelope {
			return Envelope{Msg: membership.PingReq{Target: model.NodeID(v)}}
		}},
		{"ping-req/update", b.Nodes, func(v int32) Envelope {
			return Envelope{Msg: membership.PingReq{Updates: []membership.Update{{ID: model.NodeID(v)}}}}
		}},
		{"ping-req/move-category", b.Categories, func(v int32) Envelope {
			return Envelope{Msg: membership.PingReq{Moves: moves(catalog.CategoryID(v), 0)}}
		}},
		{"ping-req/move-cluster", b.Clusters, func(v int32) Envelope {
			return Envelope{Msg: membership.PingReq{Moves: moves(0, model.ClusterID(v))}}
		}},
		{"leave/id", b.Nodes, func(v int32) Envelope { return Envelope{Msg: membership.Leave{ID: model.NodeID(v)}} }},
		{"leader-load/cluster", b.Clusters, func(v int32) Envelope {
			return Envelope{Msg: LeaderLoad{Cluster: model.ClusterID(v)}}
		}},
		{"leader-load/hit-category", b.Categories, func(v int32) Envelope {
			return Envelope{Msg: LeaderLoad{Hits: map[catalog.CategoryID]int64{catalog.CategoryID(v): 1}}}
		}},
		{"leader-load/unit-category", b.Categories, func(v int32) Envelope {
			return Envelope{Msg: LeaderLoad{Units: map[catalog.CategoryID]float64{catalog.CategoryID(v): 1}}}
		}},
		{"manifest-req/doc", b.Docs, func(v int32) Envelope { return Envelope{Msg: ManifestReq{Doc: catalog.DocID(v)}} }},
		{"manifest-req/origin", b.Nodes, func(v int32) Envelope {
			return Envelope{Msg: ManifestReq{Origin: model.NodeID(v)}}
		}},
		{"manifest/doc", b.Docs, func(v int32) Envelope { return Envelope{Msg: Manifest{Doc: catalog.DocID(v)}} }},
		{"chunk-req/doc", b.Docs, func(v int32) Envelope { return Envelope{Msg: ChunkReq{Doc: catalog.DocID(v)}} }},
		{"chunk/doc", b.Docs, func(v int32) Envelope { return Envelope{Msg: Chunk{Doc: catalog.DocID(v)}} }},
	}
	// Every tag carries its sender: one more case per tag, on the first
	// case's message.
	tags := map[string]bool{}
	for _, tc := range cases {
		tag, _, _ := strings.Cut(tc.name, "/")
		if tags[tag] {
			continue
		}
		tags[tag] = true
		env := tc.env
		cases = append(cases, idCase{tag + "/sender", b.Nodes, func(v int32) Envelope {
			e := env(0)
			e.From = model.NodeID(v)
			return e
		}})
	}
	if len(tags) != len(liveTags) {
		t.Fatalf("cases cover %d tags, want %d", len(tags), len(liveTags))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range []int32{int32(tc.bound) - 1, int32(tc.bound), -1} {
				frame, err := AppendEnvelope(nil, tc.env(v))
				if err != nil {
					t.Fatal(err)
				}
				_, err = decodeEnvelope(frame, nil, b)
				if inRange := v == int32(tc.bound)-1; inRange && err != nil {
					t.Errorf("id %d (bound %d) rejected: %v", v, tc.bound, err)
				} else if !inRange && !errors.Is(err, ErrMalformed) {
					t.Errorf("id %d (bound %d): err = %v, want ErrMalformed", v, tc.bound, err)
				}
			}
		})
	}
}

func TestStreamWriteRead(t *testing.T) {
	envs := sampleEnvelopes()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, env := range envs {
		if err := WriteEnvelope(w, env); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bufio.NewReader(&buf), Unbounded)
	for i, want := range envs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.From != want.From || !equivalentMsg(got.Msg, want.Msg) {
			t.Errorf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err == nil {
		t.Error("read past end of stream succeeded")
	}
}

func TestReaderRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	var hdr [10]byte
	// A length prefix over the limit must be refused before any read.
	n := putUvarint(hdr[:], MaxFrameBytes+1)
	w.Write(hdr[:n])
	w.Flush()
	if _, err := NewReader(bufio.NewReader(&buf), Unbounded).Next(); !errors.Is(err, ErrMalformed) {
		t.Error("oversized frame length accepted")
	}
}

func putUvarint(b []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		b[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	b[i] = byte(v)
	return i + 1
}

// BenchmarkWireCodec times the codec on the sample envelope mix:
// encode-only and full round trip.
func BenchmarkWireCodec(b *testing.B) {
	envs := sampleEnvelopes()

	b.Run("wire-encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 1024)
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = AppendEnvelope(buf[:0], envs[i%len(envs)])
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("wire-roundtrip", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 1024)
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = AppendEnvelope(buf[:0], envs[i%len(envs)])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeEnvelope(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireStream measures framed throughput over a real socket pair
// in MB/s, isolating the codec + framing cost from the transport's
// batching logic (benchmarked separately in internal/livenet).
func BenchmarkWireStream(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	done := make(chan int)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- 0
			return
		}
		defer conn.Close()
		r := NewReader(bufio.NewReaderSize(conn, 64<<10), Unbounded)
		n := 0
		for {
			if _, err := r.Next(); err != nil {
				done <- n
				return
			}
			n++
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	env := Envelope{From: 1, Msg: protocol.ResultMsg{ID: 9, Docs: []catalog.DocID{1, 2, 3, 4, 5, 6, 7, 8}, Hops: 3, From: 2}}
	frame, err := AppendEnvelope(nil, env)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)) + 1) // payload + length prefix
	w := bufio.NewWriterSize(conn, 64<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteEnvelope(w, env); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	conn.Close()
	if got := <-done; got != b.N {
		b.Fatalf("receiver decoded %d of %d frames", got, b.N)
	}
}
