// Package procpool is the process-pool backend: a driver-side Pool that
// spawns real worker processes (re-execs of the current binary), pushes
// them portable stage tasks (engine.RemoteStageSpec) together with the
// input blocks they have not seen yet from a spill-capable block store,
// and detects worker death by heartbeat — surfacing lost shuffle outputs through the same
// cluster.FetchFailedError the simulator's fault injection raises, so the
// engine's lineage-based recovery handles real crashes unchanged.
//
// The Pool implements engine.Backend (wall-clock stage reports),
// engine.Residency (which worker "holds" each registered shuffle output)
// and engine.RemoteRunner (block store + remote stage dispatch). Stages
// whose operators lack a portable registration simply run driver-local;
// the pool is an acceleration substrate, never a correctness requirement.
package procpool

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"matryoshka/internal/engine"
)

// The driver/worker wire protocol: framed messages over a unix socket.
// Every frame is a u32 big-endian payload length followed by the payload;
// the payload is a message-type byte, a u32 CRC-32C checksum of the body,
// then the body itself. Numbers inside bodies are big-endian. The framing
// is deliberately dumb — all structure lives in the per-type bodies, each
// parsed by a bounds-checked reader that fails loud on truncation (fuzzed
// in wire_test.go: arbitrary bytes must error, never panic). The checksum
// turns a flipped bit anywhere in a body — kernel buffer reuse, a torn
// write racing a crash, fault injection — into a loud framing error
// instead of a silently wrong batch.
const (
	msgHello      byte = iota + 1 // worker → driver: u64 pid
	msgHelloAck                   // driver → worker: u32 index | u64 heartbeat period (ns)
	msgTask                       // driver → worker: u64 task id | u32 nblocks | (u64 block id | u32 len | batch frame)* | JSON engine.RemoteTask
	msgTaskResult                 // worker → driver: u64 task id | u8 ok | batch frame or error string
	msgHeartbeat                  // worker → driver: empty
	msgClearCache                 // driver → worker: empty (drop cached blocks, end of job)
	msgShutdown                   // driver → worker: empty (exit cleanly)
)

// maxWireFrame caps a declared frame length so a corrupt or hostile peer
// cannot make the reader allocate unboundedly (mirrors batchio's cap).
const maxWireFrame = 1 << 30

// frameOverhead is the payload's fixed prefix: type byte + body checksum.
const frameOverhead = 5

// wireCRC is the Castagnoli polynomial table shared by the wire framing
// and the spill files (hardware-accelerated on amd64/arm64).
var wireCRC = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one encoded frame (length, type, checksum, body) to
// dst — shared by writeFrame and the fault injector's torn-write path so
// both produce byte-identical frames.
func appendFrame(dst []byte, typ byte, body []byte) []byte {
	var head [9]byte
	binary.BigEndian.PutUint32(head[:], uint32(frameOverhead+len(body)))
	head[4] = typ
	binary.BigEndian.PutUint32(head[5:], crc32.Checksum(body, wireCRC))
	return append(append(dst, head[:]...), body...)
}

// writeFrame sends one frame as a single Write (callers still serialize
// concurrent writers per connection: large writes may be split by the
// kernel, and interleaved partial writes would corrupt the stream).
func writeFrame(w io.Writer, typ byte, body []byte) error {
	_, err := w.Write(appendFrame(make([]byte, 0, 9+len(body)), typ, body))
	return err
}

// readFrame reads one frame, verifying the body checksum. io.EOF at a
// frame boundary passes through clean (the peer hung up); a partial frame
// is a distinct error.
func readFrame(r io.Reader) (byte, []byte, error) {
	var head [9]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("procpool: truncated frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(head[:4])
	if n == 0 {
		return 0, nil, fmt.Errorf("procpool: empty wire frame")
	}
	if n < frameOverhead {
		return 0, nil, fmt.Errorf("procpool: runt wire frame (%d bytes, need ≥%d for type+checksum)", n, frameOverhead)
	}
	if n > maxWireFrame {
		return 0, nil, fmt.Errorf("procpool: wire frame length %d exceeds cap %d", n, maxWireFrame)
	}
	if _, err := io.ReadFull(r, head[4:]); err != nil {
		return 0, nil, fmt.Errorf("procpool: truncated frame header: %w", err)
	}
	want := binary.BigEndian.Uint32(head[5:])
	// Grow the body buffer as bytes actually arrive (geometric, from
	// 1 MiB): a lying length prefix must not make the reader allocate
	// its full declared size — up to the cap above — before the stream
	// proves it has the payload.
	const grow = 1 << 20
	need := int(n - frameOverhead)
	body := make([]byte, 0, min(need, grow))
	for len(body) < need {
		if len(body) == cap(body) {
			next := make([]byte, len(body), min(need, 2*cap(body)))
			copy(next, body)
			body = next
		}
		m, err := io.ReadFull(r, body[len(body):cap(body)])
		body = body[:len(body)+m]
		if err != nil {
			return 0, nil, fmt.Errorf("procpool: truncated wire frame: %w", err)
		}
	}
	if got := crc32.Checksum(body, wireCRC); got != want {
		return 0, nil, fmt.Errorf("procpool: wire frame checksum mismatch (type %d, %d bytes: %08x != %08x)", head[4], need, got, want)
	}
	return head[4], body, nil
}

// wireReader is a bounds-checked cursor over a frame body. The first
// read past the end records err; every later read returns zero values, so
// a parser checks err once after its reads.
type wireReader struct {
	b   []byte
	off int
	err error
}

// take returns the next n bytes, or nil once the body is exhausted.
func (r *wireReader) take(n int) []byte {
	if r.err == nil && (n < 0 || n > len(r.b)-r.off) {
		r.err = fmt.Errorf("procpool: frame body truncated at byte %d (%d more wanted)", r.off, n)
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

// uint reads an n-byte big-endian unsigned integer.
func (r *wireReader) uint(n int) uint64 {
	var v uint64
	for _, c := range r.take(n) {
		v = v<<8 | uint64(c)
	}
	return v
}

func (r *wireReader) u8() byte    { return byte(r.uint(1)) }
func (r *wireReader) u32() uint32 { return uint32(r.uint(4)) }
func (r *wireReader) u64() uint64 { return r.uint(8) }

// rest returns everything after the cursor (may be empty, never nil).
func (r *wireReader) rest() []byte {
	if r.off >= len(r.b) {
		return []byte{}
	}
	return r.b[r.off:]
}

func encodeHello(pid int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(pid)) }

func parseHello(body []byte) (int, error) {
	r := &wireReader{b: body}
	pid := r.u64()
	return int(pid), r.err
}

func encodeHelloAck(idx int, beatEvery time.Duration) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, uint32(idx)), uint64(beatEvery))
}

func parseHelloAck(body []byte) (int, time.Duration, error) {
	r := &wireReader{b: body}
	idx, ns := r.u32(), r.u64()
	if r.err != nil {
		return 0, 0, r.err
	}
	if ns == 0 || ns > uint64(time.Hour) {
		return 0, 0, fmt.Errorf("procpool: implausible heartbeat period %dns", ns)
	}
	return int(idx), time.Duration(ns), nil
}

// inlineBlock is one input block carried inside a task frame.
type inlineBlock struct {
	id    uint64
	frame []byte // batch frame
}

// blockHeader is an inline block's fixed prefix: u64 id + u32 length.
const blockHeader = 12

func encodeTask(id uint64, blocks []inlineBlock, t *engine.RemoteTask) ([]byte, error) {
	js, err := json.Marshal(t)
	if err != nil {
		return nil, fmt.Errorf("procpool: marshal task %d: %w", t.Part, err)
	}
	b := binary.BigEndian.AppendUint64(nil, id)
	b = binary.BigEndian.AppendUint32(b, uint32(len(blocks)))
	for _, blk := range blocks {
		b = binary.BigEndian.AppendUint64(b, blk.id)
		b = binary.BigEndian.AppendUint32(b, uint32(len(blk.frame)))
		b = append(b, blk.frame...)
	}
	return append(b, js...), nil
}

// parseTask splits a task frame into its id, its inline blocks (frames
// alias body) and the decoded task.
func parseTask(body []byte) (uint64, []inlineBlock, *engine.RemoteTask, error) {
	r := &wireReader{b: body}
	id, nb := r.u64(), r.u32()
	if r.err == nil && uint64(nb)*blockHeader > uint64(len(body)-r.off) {
		r.err = fmt.Errorf("procpool: task %d declares %d inline blocks, more than its body holds", id, nb)
	}
	if r.err != nil {
		return 0, nil, nil, r.err
	}
	blocks := make([]inlineBlock, nb)
	for i := range blocks {
		blocks[i].id = r.u64()
		blocks[i].frame = r.take(int(r.u32()))
	}
	if r.err != nil {
		return 0, nil, nil, r.err
	}
	var t engine.RemoteTask
	if err := json.Unmarshal(r.rest(), &t); err != nil {
		return 0, nil, nil, fmt.Errorf("procpool: unmarshal task %d: %w", id, err)
	}
	if t.Root == nil {
		return 0, nil, nil, fmt.Errorf("procpool: task %d has no root operator", id)
	}
	return id, blocks, &t, nil
}

// taskBlocks appends the ids of every block input of t's operator tree,
// in evaluation order (duplicates included).
func taskBlocks(dst []uint64, t *engine.RemoteTask) []uint64 {
	var walk func(ins []engine.RemoteInput)
	walk = func(ins []engine.RemoteInput) {
		for i := range ins {
			switch in := &ins[i]; {
			case in.Kind == "block":
				dst = append(dst, in.Block)
			case in.Node != nil:
				walk(in.Node.Inputs)
			default:
				walk(in.Concat)
			}
		}
	}
	if t.Root != nil {
		walk(t.Root.Inputs)
	}
	return dst
}

// encodeTagged frames msgTaskResult's (id, ok, bytes) shape: on ok the
// trailing bytes are an encoded batch frame, otherwise an error string.
func encodeTagged(id uint64, ok bool, rest []byte) []byte {
	b := make([]byte, 9+len(rest))
	binary.BigEndian.PutUint64(b, id)
	if ok {
		b[8] = 1
	}
	copy(b[9:], rest)
	return b
}

func parseTagged(body []byte) (uint64, bool, []byte, error) {
	r := &wireReader{b: body}
	id, flag := r.u64(), r.u8()
	if r.err != nil {
		return 0, false, nil, r.err
	}
	if flag > 1 {
		return 0, false, nil, fmt.Errorf("procpool: bad ok flag %d", flag)
	}
	return id, flag == 1, r.rest(), nil
}
