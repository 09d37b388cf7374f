// Package wire defines the bufferdb client/server protocol: a stream of
// length-prefixed binary frames over a byte-oriented transport (TCP). Both
// internal/server and internal/client speak exactly this package — there is
// no other source of truth for the bytes on the wire.
//
// Frame layout:
//
//	uint32 big-endian  payload length (excluding the 5-byte header)
//	byte               frame type
//	[]byte             payload
//
// A session opens with Hello/HelloOK (magic + protocol version), then the
// client drives request/response exchanges. The response to a Query is a
// Columns frame, zero or more RowBatch frames, and a terminal Done —
// or a terminal Error frame at any point, whose stable code maps the
// engine's sentinel errors (busy, deadline, memory budget, contained panic,
// cancellation) across the connection. The only frame a client may send
// while a response is streaming is Cancel.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// Magic opens every Hello frame: "BDB1" as a big-endian uint32.
	Magic uint32 = 0x42444231
	// Version is the protocol revision; servers reject other versions.
	// Version 2 dropped the parallelism field from the query options;
	// version 3 dropped the engine, refinement, join, buffer-size and
	// admission-wait fields; version 4 dropped the Prepare, Execute and
	// CloseStmt frames (0x03, 0x04, 0x06), so a v3 client that would send
	// them is refused at Hello rather than mid-session.
	Version byte = 4
	// MaxFrame caps a frame payload. Row batches are built well under it;
	// a peer announcing a larger frame is treated as a protocol error
	// rather than an allocation request.
	MaxFrame = 16 << 20
)

// Type identifies a frame. Client-originated types sit below 0x80,
// server-originated types at or above it.
type Type byte

// Client → server frames.
const (
	// THello carries magic + version; must be the first frame.
	THello Type = 0x01
	// TQuery is a statement, ad hoc or prepared: options + SQL text.
	TQuery Type = 0x02
	// TCancel aborts the response currently streaming on this connection.
	// Legal only between TQuery and the terminal Done/Error.
	TCancel Type = 0x05
	// TTables asks for the catalog's table names and cardinalities.
	TTables Type = 0x07
)

// Server → client frames.
const (
	// THelloOK acknowledges the handshake: version + server info string.
	THelloOK Type = 0x81
	// TColumns opens a result stream: the output column names.
	TColumns Type = 0x82
	// TRowBatch carries a bounded batch of encoded rows.
	TRowBatch Type = 0x83
	// TDone terminates a successful result stream: total row count.
	TDone Type = 0x84
	// TError terminates a request (or the whole session, for protocol
	// errors): stable code + message.
	TError Type = 0x85
	// TTablesOK answers TTables.
	TTablesOK Type = 0x87
)

// String names a frame type for error messages.
func (t Type) String() string {
	switch t {
	case THello:
		return "Hello"
	case TQuery:
		return "Query"
	case TCancel:
		return "Cancel"
	case TTables:
		return "Tables"
	case THelloOK:
		return "HelloOK"
	case TColumns:
		return "Columns"
	case TRowBatch:
		return "RowBatch"
	case TDone:
		return "Done"
	case TError:
		return "Error"
	case TTablesOK:
		return "TablesOK"
	}
	return fmt.Sprintf("Type(0x%02x)", byte(t))
}

// Code is a stable error class carried by TError frames. The client maps
// codes back to the engine's sentinel errors so errors.Is works across the
// wire exactly as it does in-process.
type Code uint16

// Error codes.
const (
	// CodeQuery is a statement failure with no more specific class:
	// parse errors, unknown tables, execution errors.
	CodeQuery Code = 1
	// CodeBusy maps ErrServerBusy: admission control shed the query.
	CodeBusy Code = 2
	// CodeDeadline maps ErrDeadlineExceeded.
	CodeDeadline Code = 3
	// CodeOOM maps ErrMemoryBudgetExceeded.
	CodeOOM Code = 4
	// CodePanic maps ErrQueryPanic: a contained operator panic.
	CodePanic Code = 5
	// CodeCanceled reports a query aborted by a Cancel frame or client
	// disconnect observed server-side.
	CodeCanceled Code = 6
	// CodeProtocol reports a malformed or out-of-order frame; the server
	// closes the connection after sending it.
	CodeProtocol Code = 7
	// Code 8 reported an unknown prepared-statement id until protocol
	// version 4; codes are never reused.

	// CodeShutdown reports the server is draining; retry elsewhere/later.
	CodeShutdown Code = 9
	// CodeUnavailable reports a distributed query that failed because a
	// shard could not be reached (or died mid-stream). The coordinator
	// cancels the sibling shard streams before sending it.
	CodeUnavailable Code = 10
)

// String names a code for logs and error text.
func (c Code) String() string {
	switch c {
	case CodeQuery:
		return "query"
	case CodeBusy:
		return "busy"
	case CodeDeadline:
		return "deadline"
	case CodeOOM:
		return "oom"
	case CodePanic:
		return "panic"
	case CodeCanceled:
		return "canceled"
	case CodeProtocol:
		return "protocol"
	case CodeShutdown:
		return "shutdown"
	case CodeUnavailable:
		return "unavailable"
	}
	return fmt.Sprintf("code(%d)", uint16(c))
}

// WriteFrame writes one frame. The writer is typically buffered; callers
// flush at response boundaries.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d bytes exceeds MaxFrame", len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, rejecting payloads over MaxFrame before
// allocating.
func ReadFrame(r io.Reader) (Type, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds MaxFrame", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return Type(hdr[4]), payload, nil
}
