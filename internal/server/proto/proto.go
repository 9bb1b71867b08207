// Package proto defines the armus-serve wire protocol shared by the server
// (internal/server) and the client SDK (internal/client).
//
// The two directions of a connection are deliberately asymmetric:
//
//   - client -> server is EXACTLY the internal/trace stream format: magic,
//     a header frame whose mode byte selects the session's verification
//     mode (avoid or detect) and whose label carries the handshake
//     (session name, subscribe flag), then varint-framed verifier events,
//     and — on a clean close — the trace end sentinel and CRC footer.
//     Every accepted connection is therefore trivially also a recordable,
//     replayable trace.
//   - server -> client is a stream of small varint-framed responses (this
//     package): a hello after the session attach, gate decisions for
//     avoidance-mode blocks, checkpoint verdicts, pushed deadlock reports,
//     and a goodbye naming why the server is letting go. Responses are
//     live (no CRC footer): TCP provides integrity, and every frame is
//     still length- and bounds-validated before anything is allocated.
package proto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"armus/internal/deps"
	"armus/internal/wire"
)

// Version is the handshake protocol version; it rides in the trace header
// label, so bumping it rejects old clients at attach time.
const Version = 1

// labelPrefix opens every handshake label; the trailing digit is Version.
const labelPrefix = "armus-serve/1"

const (
	// MaxFrame bounds one response frame, mirroring the trace codec's
	// frame cap.
	MaxFrame = 1 << 20
	// MaxSessionName bounds a session name.
	MaxSessionName = 128
)

// Handshake is the client hello, carried in the trace-header label of the
// client->server stream.
type Handshake struct {
	// Session names the session (tenant) the connection attaches to.
	// Every connection naming the same session feeds the same verifier
	// state — that is what makes cross-client deadlocks visible.
	Session string
	// Subscribe asks for deadlock reports to be pushed on this connection.
	Subscribe bool
}

// ValidSession reports whether s is an acceptable session name: 1 to
// MaxSessionName bytes of letters, digits, '.', '_', '-' (no spaces: the
// label is space-delimited).
func ValidSession(s string) bool {
	if len(s) == 0 || len(s) > MaxSessionName {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Label renders the handshake as a trace-header label.
func (h Handshake) Label() string {
	sub := "0"
	if h.Subscribe {
		sub = "1"
	}
	return fmt.Sprintf("%s sess=%s sub=%s", labelPrefix, h.Session, sub)
}

// ParseLabel parses a trace-header label back into a handshake. A label
// that does not open with the exact protocol/version token is rejected —
// a trace file fed to the server by mistake, or a client from an
// incompatible future, fails loudly at attach.
func ParseLabel(label string) (Handshake, error) {
	var h Handshake
	fields := strings.Fields(label)
	if len(fields) == 0 || fields[0] != labelPrefix {
		return h, fmt.Errorf("proto: not an %s handshake label %q", labelPrefix, label)
	}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return h, fmt.Errorf("proto: malformed handshake field %q", f)
		}
		switch k {
		case "sess":
			if !ValidSession(v) {
				return h, fmt.Errorf("proto: bad session name %q", v)
			}
			h.Session = v
		case "sub":
			h.Subscribe = v == "1"
		default:
			// Unknown fields are ignored: minor protocol extensions stay
			// compatible in both directions.
		}
	}
	if h.Session == "" {
		return h, fmt.Errorf("proto: handshake label %q names no session", label)
	}
	return h, nil
}

// RespKind enumerates the server->client response frames.
type RespKind uint8

const (
	// RespHello acknowledges the attach: the session was created or
	// resumed and events may flow.
	RespHello RespKind = 1
	// RespGate answers one avoidance-mode block: allowed, or refused with
	// the cycle the block would have closed.
	RespGate RespKind = 2
	// RespVerdict answers one checkpoint (a client->server KindVerdict
	// event): whether the session state is currently deadlocked.
	RespVerdict RespKind = 3
	// RespReport pushes a deadlock report to subscribed connections.
	RespReport RespKind = 4
	// RespGoodbye announces the server is closing the connection, with a
	// reason code.
	RespGoodbye RespKind = 5
)

func (k RespKind) String() string {
	switch k {
	case RespHello:
		return "hello"
	case RespGate:
		return "gate"
	case RespVerdict:
		return "verdict"
	case RespReport:
		return "report"
	case RespGoodbye:
		return "goodbye"
	default:
		return fmt.Sprintf("resp(%d)", uint8(k))
	}
}

// Goodbye reason codes.
const (
	// ByeDrain: the server is shutting down gracefully.
	ByeDrain byte = 1
	// ByeMalformed: the client stream violated the trace framing.
	ByeMalformed byte = 2
	// ByeSlow: the connection's outbound queue overflowed (slow consumer).
	ByeSlow byte = 3
	// ByeSession: the attach was refused (bad handshake, mode conflict).
	ByeSession byte = 4
)

// ByeString names a goodbye reason code.
func ByeString(code byte) string {
	switch code {
	case ByeDrain:
		return "drain"
	case ByeMalformed:
		return "malformed"
	case ByeSlow:
		return "slow-consumer"
	case ByeSession:
		return "session-refused"
	default:
		return fmt.Sprintf("bye(%d)", code)
	}
}

// Response is one server->client frame. Which fields are meaningful
// depends on Kind; decode reuses the slice capacity of the Response it is
// handed.
type Response struct {
	Kind RespKind
	// Hello: the session mode the server settled on (numeric core.Mode)
	// and whether the session already existed (a resume).
	Mode    uint8
	Resumed bool
	// Gate: the blocked task and the decision. A refusal carries the
	// cycle in Tasks/Resources.
	Task    deps.TaskID
	Allowed bool
	// Verdict: the checkpoint sequence number (per connection, counting
	// from 1) and the verdict.
	Seq        uint64
	Deadlocked bool
	// Report / refused gate: the deadlock cycle.
	Tasks     []deps.TaskID
	Resources []deps.Resource
	// Goodbye: reason code and optional human-readable detail.
	Code byte
	Msg  string

	// buf is ReadResponse's reusable frame buffer: a reader feeding a
	// stream of responses through the same Response (the SDK's read loop,
	// one decode per gate decision) stops allocating once it is warm.
	buf []byte
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendResponse appends the complete frame (length prefix included) for r
// to buf and returns the extended buffer. The common responses (gate
// allowed, verdict) encode with zero allocations into a warm buffer.
func AppendResponse(buf []byte, r *Response) ([]byte, error) {
	// Reserve a maximal 3-byte length prefix, encode the payload after
	// it, then patch the real length in: one pass, no second buffer.
	start := len(buf)
	buf = append(buf, 0, 0, 0)
	buf = binary.AppendUvarint(buf, uint64(r.Kind))
	switch r.Kind {
	case RespHello:
		buf = binary.AppendUvarint(buf, Version)
		buf = binary.AppendUvarint(buf, uint64(r.Mode))
		buf = appendBool(buf, r.Resumed)
	case RespGate:
		buf = binary.AppendVarint(buf, int64(r.Task))
		buf = appendBool(buf, r.Allowed)
		if !r.Allowed {
			buf = wire.AppendTasks(buf, r.Tasks)
			buf = wire.AppendResources(buf, r.Resources)
		}
	case RespVerdict:
		buf = binary.AppendUvarint(buf, r.Seq)
		buf = appendBool(buf, r.Deadlocked)
	case RespReport:
		buf = wire.AppendTasks(buf, r.Tasks)
		buf = wire.AppendResources(buf, r.Resources)
	case RespGoodbye:
		buf = append(buf, r.Code)
		if len(r.Msg) > 256 {
			r.Msg = r.Msg[:256]
		}
		buf = binary.AppendUvarint(buf, uint64(len(r.Msg)))
		buf = append(buf, r.Msg...)
	default:
		return buf[:start], fmt.Errorf("proto: cannot encode response kind %d", r.Kind)
	}
	n := len(buf) - start - 3
	if n > MaxFrame {
		return buf[:start], fmt.Errorf("proto: response frame of %d bytes exceeds limit", n)
	}
	// 3-byte fixed-width uvarint (continuation bits on the first two
	// bytes): values < 2^21, which MaxFrame guarantees.
	buf[start] = byte(n)&0x7f | 0x80
	buf[start+1] = byte(n>>7)&0x7f | 0x80
	buf[start+2] = byte(n >> 14)
	return buf, nil
}

// ReadResponse reads and decodes one response frame from br into r,
// reusing r's slice capacity.
func ReadResponse(br *bufio.Reader, r *Response) error {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if n == 0 || n > MaxFrame {
		return fmt.Errorf("proto: bad response frame length %d", n)
	}
	var payload []byte
	if uint64(cap(r.buf)) >= n {
		payload = r.buf[:n]
	} else {
		payload = make([]byte, n)
		r.buf = payload
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return decodeResponse(payload, r)
}

// decodeResponse decodes one frame's payload into r. Per kind:
//
//	hello:   uvarint Version, uvarint mode, bool resumed
//	gate:    varint task, bool allowed, then the cycle if refused
//	verdict: uvarint seq, bool deadlocked
//	report:  the cycle
//	goodbye: byte code, uvarint len(msg), msg
//
// where a cycle is wire.AppendTasks then wire.AppendResources.
func decodeResponse(payload []byte, r *Response) error {
	c := wire.NewCursor(payload)
	ts, rs, fb := r.Tasks[:0], r.Resources[:0], r.buf
	*r = Response{Tasks: ts, Resources: rs, buf: fb}
	r.Kind = RespKind(c.Uint8())
	switch r.Kind {
	case RespHello:
		if ver := c.Uvarint(); ver != Version {
			c.Fail(fmt.Errorf("server speaks protocol version %d, client %d", ver, Version))
		}
		r.Mode = c.Uint8()
		r.Resumed = c.Bool()
	case RespGate:
		r.Task = deps.TaskID(c.Varint())
		if r.Allowed = c.Bool(); !r.Allowed {
			r.Tasks = c.TasksInto(r.Tasks, MaxFrame)
			r.Resources = c.ResourcesInto(r.Resources, MaxFrame)
		}
	case RespVerdict:
		r.Seq = c.Uvarint()
		r.Deadlocked = c.Bool()
	case RespReport:
		r.Tasks = c.TasksInto(r.Tasks, MaxFrame)
		r.Resources = c.ResourcesInto(r.Resources, MaxFrame)
	case RespGoodbye:
		r.Code = c.Byte()
		r.Msg = string(c.Bytes(MaxFrame))
	default:
		c.Fail(fmt.Errorf("unknown response kind %d", r.Kind))
	}
	if err := c.Done(); err != nil {
		return fmt.Errorf("proto: %v response: %w", r.Kind, err)
	}
	return nil
}
