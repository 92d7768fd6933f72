// Package agg is the fleet side of the TESLA runtime: an ingestion
// service that merges the per-process trace streams and health counters
// of thousands of monitored processes into one queryable store. Producers
// (tesla-run -agg) stream delta traces in the versioned binary codec over
// TCP or a unix socket; the server aggregates them per (process, class,
// site), reservoir-samples the event windows leading into failures at hot
// sites, and answers "which assertion failed where, fleet-wide" —
// dtrace.Summarize scaled from one trace to a fleet, in the stream-
// processing style of TeSSLa: merge the per-source event streams, then
// aggregate, instead of inspecting processes one at a time.
//
// Degradation follows the PR 5 contract end to end: every queue is
// bounded, every drop is counted on the side that dropped it, and a
// producer that lost anything exits 3 (degraded), never reporting a
// silent success.
package agg

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"tesla/internal/core"
	"tesla/internal/trace"
)

// Magic opens every connection, before the first frame.
const Magic = "TESLAAGG"

// ProtoVersion is the wire-protocol version spoken by this package. The
// hello frame carries it together with the trace-codec version; any other
// proto or a codec mismatch rejects the connection at the handshake — an
// old producer is turned away with a diagnostic naming both sides, not cut
// off mid-stream with a codec error.
//
// v2 is the durability plane: every trace frame is sequenced
// (FrameSeqTrace), acked (FrameAck) and deduplicated, and the HelloAck
// carries the resume watermark. v1's unsequenced frames are retired.
const ProtoVersion = 2

// Frame kinds of the wire protocol. The framing itself (kind byte,
// uvarint length, payload) is trace.FrameWriter/FrameReader; this is the
// schema above it. Control payloads are JSON (small, debuggable); trace
// payloads are a sequence number and an event-count uvarint followed by a
// complete binary trace encoding, so a dropped frame can be accounted in
// events without decoding it. Kind 2 was v1's unsequenced trace frame and
// stays unassigned.
const (
	// FrameHello is the producer's first frame: a Hello payload.
	FrameHello = 1
	// FrameHealth is a []HealthRow JSON payload: the producer's merged
	// monitor health counters (cumulative; the server keeps the latest).
	FrameHealth = 3
	// FrameBye is the producer's final accounting, a Bye payload. Its
	// presence distinguishes a clean close from a mid-stream disconnect.
	FrameBye = 4
	// FrameHelloAck is the server's reply to FrameHello.
	FrameHelloAck = 5
	// FrameQuery is a query-role client's request, a Query payload.
	FrameQuery = 6
	// FrameResult is the server's JSON answer to a FrameQuery.
	FrameResult = 7
	// FrameSeqTrace is one sequenced delta trace: uvarint frame sequence
	// number, uvarint event count, then the binary codec bytes. Sequence numbers are monotonic per
	// producer process across connections and restarts, so the server can
	// deduplicate resent frames and acknowledge durable prefixes.
	FrameSeqTrace = 8
	// FrameAck (server→producer) carries the producer's
	// acknowledged sequence watermark as an Ack payload: every frame with
	// seq <= Ack.Seq is applied (and, when the server snapshots, durable)
	// and may be pruned from the client's resend set and spool.
	FrameAck = 9
)

// Ack is the FrameAck payload.
type Ack struct {
	Seq uint64 `json:"seq"`
}

// Hello identifies a connecting client and the versions it speaks.
type Hello struct {
	Proto int `json:"proto"`
	// Codec is the trace-codec version the producer encodes with
	// (trace.Version of its build).
	Codec int `json:"codec"`
	// Tool names the producing program ("tesla-run", "tesla-bench").
	Tool string `json:"tool"`
	// Process identifies the monitored process fleet-wide.
	Process string `json:"process"`
	// Query marks a query-role connection: no producer accounting is
	// created for it.
	Query bool `json:"query,omitempty"`
}

// HelloAck is the server's handshake verdict.
type HelloAck struct {
	OK      bool   `json:"ok"`
	Message string `json:"message,omitempty"`
	Proto   int    `json:"proto"`
	Codec   int    `json:"codec"`
	// Ack is the producer's acknowledged sequence watermark at
	// handshake time — a reconnecting or resuming producer prunes its
	// resend set to seq > Ack before sending anything.
	Ack uint64 `json:"ack,omitempty"`
}

// Bye is the producer's final self-accounting. SentFrames/SentEvents
// count what actually entered the connection; ClientDropped* count what
// the producer's bounded send buffer or exhausted retries discarded, and
// RingDropped what its trace rings overwrote before a flush. The exact-
// accounting invariant the load harness asserts is
//
//	server.ingested + server.dropped == bye.SentEvents
//
// per clean producer, with the client- and ring-side losses reported
// alongside, so fleet numbers always sum.
type Bye struct {
	SentFrames          uint64 `json:"sentFrames"`
	SentEvents          uint64 `json:"sentEvents"`
	ClientDroppedFrames uint64 `json:"clientDroppedFrames"`
	ClientDroppedEvents uint64 `json:"clientDroppedEvents"`
	RingDropped         uint64 `json:"ringDropped"`
}

// HealthRow is one class's health counters as shipped by a producer —
// core.ClassHealth flattened into a stable JSON schema.
type HealthRow struct {
	Class         string `json:"class"`
	Quarantined   bool   `json:"quarantined,omitempty"`
	Live          int    `json:"live"`
	Violations    uint64 `json:"violations"`
	Overflows     uint64 `json:"overflows"`
	Evictions     uint64 `json:"evictions"`
	Suppressed    uint64 `json:"suppressed"`
	Quarantines   uint64 `json:"quarantines"`
	HandlerPanics uint64 `json:"handlerPanics"`
}

// HealthRows converts a monitor health report to the wire schema.
func HealthRows(hs []core.ClassHealth) []HealthRow {
	out := make([]HealthRow, 0, len(hs))
	for _, ch := range hs {
		out = append(out, HealthRow{
			Class:         ch.Class,
			Quarantined:   ch.Quarantined,
			Live:          ch.Live,
			Violations:    ch.Violations,
			Overflows:     ch.Overflows,
			Evictions:     ch.Evictions,
			Suppressed:    ch.Suppressed,
			Quarantines:   ch.Quarantines,
			HandlerPanics: ch.HandlerPanics,
		})
	}
	return out
}

// Query is a query-role request.
type Query struct {
	// Q selects the report: "fleet", "failures", "topk", "samples" or
	// "health".
	Q     string `json:"q"`
	Class string `json:"class,omitempty"`
	K     int    `json:"k,omitempty"`
}

// rejectHello renders the handshake rejection for a version mismatch:
// actionable, naming the producing tool and both sides' versions.
func rejectHello(h Hello) string {
	return fmt.Sprintf(
		"%s (process %q) speaks proto v%d / trace codec v%d; this tesla-agg accepts proto v%d / codec v%d — upgrade whichever side is older",
		orUnknown(h.Tool), h.Process, h.Proto, h.Codec, ProtoVersion, trace.Version)
}

// EncodeSeqTrace prefixes a trace payload (event count + binary trace)
// with its sequence number, producing a FrameSeqTrace payload.
// The result is also exactly what the client write-ahead-logs to its
// offline spool: spool frame == wire frame, so resume is a replay.
func EncodeSeqTrace(seq uint64, tracePayload []byte) []byte {
	buf := make([]byte, seqRoom, seqRoom+len(tracePayload))
	return sealSeq(append(buf, tracePayload...), seq)
}

// seqRoom is the space a sequenced payload reserves in front of its body
// for the sequence number, which is only known once the frame is queued.
const seqRoom = binary.MaxVarintLen64

// seqBody starts a FrameSeqTrace payload in dst: seqRoom reserved bytes,
// then the event count. The binary trace appended after it completes the
// body, so a delta is encoded (or copied) once, in place, into what
// becomes its final payload.
func seqBody(dst []byte, events uint64) []byte {
	dst = append(dst[:0], make([]byte, seqRoom)...)
	return binary.AppendUvarint(dst, events)
}

// sealSeq writes seq into the room reserved in front of buf's body and
// returns the finished FrameSeqTrace payload, a suffix of buf.
func sealSeq(buf []byte, seq uint64) []byte {
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], seq)
	copy(buf[seqRoom-n:], prefix[:n])
	return buf[seqRoom-n:]
}

// SeqTraceInfo splits a FrameSeqTrace payload into its sequence number,
// declared event count and the trace payload after the sequence number
// (event count + binary trace).
func SeqTraceInfo(payload []byte) (seq, events uint64, tracePayload []byte, err error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 || seq == 0 {
		return 0, 0, nil, fmt.Errorf("agg: sequenced trace frame missing its sequence prefix")
	}
	tracePayload = payload[n:]
	events, n = binary.Uvarint(tracePayload)
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("agg: sequenced trace frame missing its event-count prefix")
	}
	return seq, events, tracePayload, nil
}

func orUnknown(tool string) string {
	if tool == "" {
		return "unknown tool"
	}
	return tool
}

// Network addresses: "unix:/path" (or any string containing a path
// separator) selects a unix socket; everything else is TCP host:port.

// SplitAddr maps an address spelling to a (network, address) pair for
// net.Dial / net.Listen.
func SplitAddr(addr string) (network, address string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	if strings.ContainsAny(addr, "/") {
		return "unix", addr
	}
	return "tcp", addr
}

// Listen opens the server socket for an address spelling. A stale unix
// socket file — the residue of a SIGKILLed server, which never unlinks
// its path — is reclaimed, but only after a probe dial confirms nothing
// is accepting on it: a crashed server must be restartable on the same
// address without an operator rm, while a live server's socket is never
// stolen.
func Listen(addr string) (net.Listener, error) {
	network, address := SplitAddr(addr)
	ln, err := net.Listen(network, address)
	if err == nil || network != "unix" {
		return ln, err
	}
	probe, perr := net.DialTimeout(network, address, time.Second)
	if perr == nil {
		probe.Close() // someone is alive on it: surface the original error
		return nil, err
	}
	if rmErr := os.Remove(address); rmErr != nil {
		return nil, err
	}
	return net.Listen(network, address)
}
