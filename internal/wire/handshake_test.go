package wire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"p2pshare/internal/protocol"
)

// TestStreamHandshake drives each side of the stream-open handshake
// against a scripted peer on a net.Pipe: the exact preamble is accepted
// and acked; another version, a short preamble, a wrong ack and a
// missing ack are errors on the side that sees them, and a refused
// sender sees the stream close without an ack.
func TestStreamHandshake(t *testing.T) {
	version := func(v byte) []byte { return []byte{'P', '2', 'P', 'W', v} }
	// sends writes opening bytes, then reports what comes back: the ack
	// byte, or the error that took its place.
	type reply struct {
		ack byte
		err error
	}
	sends := func(opening []byte, got chan<- reply) func(net.Conn) {
		return func(c net.Conn) {
			c.Write(opening)
			var ack [1]byte
			_, err := io.ReadFull(c, ack[:])
			got <- reply{ack[0], err}
		}
	}
	// answers reads the preamble and writes back the given bytes (none:
	// stays silent until the other side gives up).
	answers := func(ack []byte, hold time.Duration) func(net.Conn) {
		return func(c net.Conn) {
			io.ReadFull(c, make([]byte, len(preamble)))
			if len(ack) > 0 {
				c.Write(ack)
			}
			time.Sleep(hold)
		}
	}

	t.Run("accept", func(t *testing.T) {
		for _, tc := range []struct {
			name    string
			opening []byte
			wantErr error // nil: accepted
		}{
			{"exact preamble", preamble[:], nil},
			{"next version", version(Version + 1), errBadOpening},
			{"previous version", version(Version - 1), errBadOpening},
			{"EOF mid-preamble", preamble[:3], io.ErrUnexpectedEOF},
			{"EOF before any byte", nil, io.EOF},
		} {
			t.Run(tc.name, func(t *testing.T) {
				server, client := net.Pipe()
				got := make(chan reply, 1)
				go func() {
					defer client.Close()
					switch len(tc.opening) {
					case 0:
					case len(preamble):
						sends(tc.opening, got)(client)
					default:
						client.Write(tc.opening)
					}
				}()
				r, err := AcceptStream(bufio.NewReader(server), server, Unbounded)
				server.Close() // what every caller does on error
				if tc.wantErr == nil {
					if err != nil || r == nil {
						t.Fatalf("AcceptStream = %v, %v; want a reader", r, err)
					}
					if rep := <-got; rep.err != nil || rep.ack != Version {
						t.Fatalf("sender got ack %d, %v; want %d", rep.ack, rep.err, Version)
					}
					return
				}
				if !errors.Is(err, tc.wantErr) || r != nil {
					t.Fatalf("AcceptStream = %v, %v; want error %v", r, err, tc.wantErr)
				}
				if len(tc.opening) == len(preamble) {
					if rep := <-got; rep.err == nil {
						t.Fatalf("refused sender was acked with %d", rep.ack)
					}
				}
			})
		}
	})

	t.Run("open", func(t *testing.T) {
		for _, tc := range []struct {
			name    string
			peer    func(net.Conn)
			wantErr error // nil: opened
		}{
			{"acked", answers([]byte{Version}, 0), nil},
			{"refused", answers(nil, 0), io.EOF},
			{"wrong ack", answers([]byte{Version + 1}, 0), errBadAck},
			{"ack deadline", answers(nil, 300*time.Millisecond), os.ErrDeadlineExceeded},
		} {
			t.Run(tc.name, func(t *testing.T) {
				server, client := net.Pipe()
				defer client.Close()
				go func() {
					defer server.Close()
					tc.peer(server)
				}()
				err := OpenStream(client, 100*time.Millisecond)
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("OpenStream = %v, want %v", err, tc.wantErr)
				}
			})
		}
	})

	t.Run("both sides", func(t *testing.T) {
		server, client := net.Pipe()
		defer server.Close()
		want := Envelope{From: 3, Msg: protocol.QueryMsg{ID: 9, Category: 2, Want: 1, Origin: 3}}
		go func() {
			defer client.Close()
			if err := OpenStream(client, time.Second); err != nil {
				return
			}
			w := bufio.NewWriter(client)
			WriteEnvelope(w, want)
			w.Flush()
		}()
		r, err := AcceptStream(bufio.NewReader(server), server, Unbounded)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.Next(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("first frame = %+v, %v; want %+v", got, err, want)
		}
	})
}
