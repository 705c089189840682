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
	"bytes"
	"encoding/binary"
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
//
// A msgTask body is
//
//	u64 task id | u64 stage id
//	u8 table flag | if 1: u32 nops | (u32 len | op name | u32 len | op arg)*
//	u32 nblocks | (u64 block id | u32 len | batch frame)*
//	u32 part | node
//
// node  = u32 op index | u32 part | u32 ninputs | input*
// input = u8 kind | empty: nothing | block: u64 id | node: node | concat: u32 n | input*
//
// The stage's operator table rides inline (flag 1) in the first task frame
// of that stage a worker incarnation receives; the worker compiles its
// kernels once and keeps them, with its block cache, until msgClearCache.
const (
	msgHello      byte = iota + 1 // worker → driver: u64 pid
	msgHelloAck                   // driver → worker: u32 index | u64 heartbeat period (ns)
	msgTask                       // driver → worker: see above
	msgTaskResult                 // worker → driver: u64 task id | u8 ok | batch frame or error string
	msgHeartbeat                  // worker → driver: empty
	msgClearCache                 // driver → worker: empty (drop cached blocks and operator tables, end of job)
	msgShutdown                   // driver → worker: empty (exit cleanly)
)

// maxWireFrame caps a declared frame length so a corrupt or hostile peer
// cannot make the reader allocate unboundedly (mirrors batchio's cap).
const maxWireFrame = 1 << 30

// frameOverhead is the payload's fixed prefix: type byte + body checksum.
const frameOverhead = 5

// frameHeader is a whole frame's fixed prefix: length + frameOverhead.
const frameHeader = 4 + frameOverhead

// wireCRC is the Castagnoli polynomial table shared by the wire framing
// and the spill files (hardware-accelerated on amd64/arm64).
var wireCRC = crc32.MakeTable(crc32.Castagnoli)

// startFrame returns a buffer holding the blank header of a frame of type
// typ, with room for a body of sizeHint bytes: append the body, then
// sealFrame. Task frames are built this way so the body is never copied.
func startFrame(typ byte, sizeHint int) []byte {
	f := make([]byte, frameHeader, frameHeader+sizeHint)
	f[4] = typ
	return f
}

// sealFrame fills in the length and body checksum of a frame built on
// startFrame.
func sealFrame(f []byte) []byte {
	binary.BigEndian.PutUint32(f, uint32(len(f)-4))
	binary.BigEndian.PutUint32(f[5:], crc32.Checksum(f[frameHeader:], wireCRC))
	return f
}

// writeFrame sends one frame as a single Write (callers still serialize
// concurrent writers per connection: large writes may be split by the
// kernel, and interleaved partial writes would corrupt the stream).
func writeFrame(w io.Writer, typ byte, body []byte) error {
	_, err := w.Write(sealFrame(append(startFrame(typ, len(body)), body...)))
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

// fail records a parse error unless one is already recorded.
func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// count reads a u32 element count and checks that the rest of the body
// could hold that many elements of at least size bytes each, so a lying
// count cannot make the parser allocate past the body.
func (r *wireReader) count(size int, what string) int {
	n := r.u32()
	if r.err == nil && uint64(n)*uint64(size) > uint64(len(r.b)-r.off) {
		r.fail("procpool: frame declares %d %s, more than its body holds", n, what)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
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

// maxTaskDepth caps how deep a task's operator tree nests (nodes and
// concats both count a level), so a hostile body cannot recurse the
// parser off its stack. Plans nest one level per fused operator.
const maxTaskDepth = 1000

// taskFrame is one msgTask body, parsed or to be encoded.
type taskFrame struct {
	id     uint64
	stage  uint64            // pool-unique stage id: names the operator table
	ops    []engine.RemoteOp // the stage's operator table, when inline
	blocks []inlineBlock     // frames alias the parsed body
	task   engine.RemoteTask
	nops   int // parsed: table entries the task refers to (highest index + 1)
}

// appendTask appends f's msgTask body to b.
func appendTask(b []byte, f *taskFrame) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(b, f.id)
	b = binary.BigEndian.AppendUint64(b, f.stage)
	if f.ops == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.BigEndian.AppendUint32(b, uint32(len(f.ops)))
		for _, op := range f.ops {
			b = binary.BigEndian.AppendUint32(b, uint32(len(op.Name)))
			b = append(b, op.Name...)
			b = binary.BigEndian.AppendUint32(b, uint32(len(op.Arg)))
			b = append(b, op.Arg...)
		}
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(f.blocks)))
	for _, blk := range f.blocks {
		b = binary.BigEndian.AppendUint64(b, blk.id)
		b = binary.BigEndian.AppendUint32(b, uint32(len(blk.frame)))
		b = append(b, blk.frame...)
	}
	if f.task.Root == nil {
		return nil, fmt.Errorf("procpool: task %d has no root operator", f.task.Part)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(f.task.Part))
	return appendNode(b, f.task.Root, 0)
}

func appendNode(b []byte, rn *engine.RemoteNode, depth int) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, uint32(rn.Op))
	b = binary.BigEndian.AppendUint32(b, uint32(rn.Part))
	return appendInputs(b, rn.Inputs, depth)
}

// appendInputs appends an input list at the given nesting depth; every
// level of a task tree passes through here, so the depth cap sits here.
func appendInputs(b []byte, ins []engine.RemoteInput, depth int) ([]byte, error) {
	if depth > maxTaskDepth {
		return nil, fmt.Errorf("procpool: task tree nests deeper than %d", maxTaskDepth)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(ins)))
	var err error
	for i := range ins {
		in := &ins[i]
		b = append(b, byte(in.Kind))
		switch in.Kind {
		case engine.InputEmpty:
		case engine.InputBlock:
			b = binary.BigEndian.AppendUint64(b, in.Block)
		case engine.InputNode:
			b, err = appendNode(b, in.Node, depth+1)
		case engine.InputConcat:
			b, err = appendInputs(b, in.Concat, depth+1)
		default:
			err = fmt.Errorf("procpool: unknown task input kind %d", in.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// parseTask parses a msgTask body. Block frames alias body. Every body it
// accepts re-encodes byte-identically through appendTask.
func parseTask(body []byte) (taskFrame, error) {
	r := &wireReader{b: body}
	var f taskFrame
	f.id, f.stage = r.u64(), r.u64()
	switch flag := r.u8(); {
	case r.err != nil:
	case flag == 1:
		f.ops = make([]engine.RemoteOp, r.count(8, "operators"))
		for i := range f.ops {
			f.ops[i].Name = string(r.take(int(r.u32())))
			if arg := r.take(int(r.u32())); len(arg) > 0 {
				// Copied: the table outlives this frame's body.
				f.ops[i].Arg = bytes.Clone(arg)
			}
		}
	case flag != 0:
		r.fail("procpool: task %d: bad operator-table flag %d", f.id, flag)
	}
	f.blocks = make([]inlineBlock, r.count(blockHeader, "inline blocks"))
	for i := range f.blocks {
		f.blocks[i].id = r.u64()
		f.blocks[i].frame = r.take(int(r.u32()))
	}
	f.task.Part = int(r.u32())
	if r.err == nil && r.off == len(body) {
		r.fail("procpool: task %d has no root operator", f.id)
	}
	f.task.Root = r.node(0, &f.nops)
	if r.err == nil && r.off != len(body) {
		r.fail("procpool: task %d has %d trailing bytes", f.id, len(body)-r.off)
	}
	if r.err != nil {
		return taskFrame{}, r.err
	}
	if f.ops != nil {
		if err := f.checkTable(len(f.ops)); err != nil {
			return taskFrame{}, err
		}
	}
	return f, nil
}

// checkTable reports a task that refers past the end of its stage's
// n-entry operator table.
func (f *taskFrame) checkTable(n int) error {
	if f.nops > n {
		return fmt.Errorf("procpool: task %d refers to operator %d, outside its stage's %d-entry table", f.id, f.nops-1, n)
	}
	return nil
}

// node reads one operator node; depth counts the enclosing levels, and
// nops tracks the highest operator index seen, plus one.
func (r *wireReader) node(depth int, nops *int) *engine.RemoteNode {
	op, part := r.u32(), r.u32()
	if r.err != nil {
		return nil
	}
	*nops = max(*nops, int(op)+1)
	return &engine.RemoteNode{Op: int(op), Part: int(part), Inputs: r.inputs(depth, nops)}
}

// inputs reads a u32 count and that many inputs at the given depth; every
// level of a task tree passes through here, so the depth cap sits here.
func (r *wireReader) inputs(depth int, nops *int) []engine.RemoteInput {
	if depth > maxTaskDepth {
		r.fail("procpool: task tree nests deeper than %d", maxTaskDepth)
	}
	n := r.count(1, "inputs")
	if n == 0 {
		return nil
	}
	ins := make([]engine.RemoteInput, n)
	for i := range ins {
		in := &ins[i]
		in.Kind = engine.InputKind(r.u8())
		switch in.Kind {
		case engine.InputEmpty:
		case engine.InputBlock:
			in.Block = r.u64()
		case engine.InputNode:
			in.Node = r.node(depth+1, nops)
		case engine.InputConcat:
			in.Concat = r.inputs(depth+1, nops)
		default:
			r.fail("procpool: unknown task input kind %d", in.Kind)
		}
		if r.err != nil {
			return nil
		}
	}
	return ins
}

// taskBlocks appends the ids of every block input of t's operator tree,
// in evaluation order (duplicates included).
func taskBlocks(dst []uint64, t *engine.RemoteTask) []uint64 {
	var walk func(ins []engine.RemoteInput)
	walk = func(ins []engine.RemoteInput) {
		for i := range ins {
			switch in := &ins[i]; in.Kind {
			case engine.InputBlock:
				dst = append(dst, in.Block)
			case engine.InputNode:
				walk(in.Node.Inputs)
			case engine.InputConcat:
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
