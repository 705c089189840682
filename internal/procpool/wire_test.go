package procpool

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"matryoshka/internal/engine"
)

func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := map[byte][]byte{
		msgHello:      encodeHello(4242),
		msgHelloAck:   encodeHelloAck(3, 250*time.Millisecond),
		msgTaskResult: encodeTagged(9, false, []byte("boom")),
		msgHeartbeat:  nil,
		msgClearCache: nil,
		msgShutdown:   nil,
	}
	order := []byte{msgHello, msgHelloAck, msgTaskResult, msgHeartbeat, msgClearCache, msgShutdown}
	for _, typ := range order {
		if err := writeFrame(&buf, typ, bodies[typ]); err != nil {
			t.Fatalf("write type %d: %v", typ, err)
		}
	}
	for _, want := range order {
		typ, body, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read type %d: %v", want, err)
		}
		if typ != want {
			t.Fatalf("got type %d, want %d", typ, want)
		}
		if wb := bodies[want]; len(wb) > 0 && !bytes.Equal(body, wb) {
			t.Fatalf("type %d body mismatch", want)
		}
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("drained stream: got %v, want io.EOF", err)
	}
}

func TestWireFieldRoundTrips(t *testing.T) {
	if pid, err := parseHello(encodeHello(911)); err != nil || pid != 911 {
		t.Fatalf("hello: pid %d err %v", pid, err)
	}
	idx, every, err := parseHelloAck(encodeHelloAck(2, 125*time.Millisecond))
	if err != nil || idx != 2 || every != 125*time.Millisecond {
		t.Fatalf("helloAck: idx %d every %v err %v", idx, every, err)
	}
	id, ok, rest, err := parseTagged(encodeTagged(31, true, []byte("payload")))
	if err != nil || id != 31 || !ok || string(rest) != "payload" {
		t.Fatalf("tagged: id %d ok %v rest %q err %v", id, ok, rest, err)
	}
}

// wireOps is the operator table of the task-frame tests' stage.
func wireOps() []engine.RemoteOp {
	return []engine.RemoteOp{{Name: "identity"}, {Name: "htest.hang", Arg: []byte("/nonexistent/flag")}}
}

// wireTask reads block 12 directly and, through a concat, block 13, an
// empty input and a nested node reading block 12 again: every input kind,
// with empty and node nested inside a concat.
func wireTask() engine.RemoteTask {
	return engine.RemoteTask{Part: 3, Root: &engine.RemoteNode{
		Op: 1, Part: 3,
		Inputs: []engine.RemoteInput{{Kind: engine.InputBlock, Block: 12}, {Kind: engine.InputConcat, Concat: []engine.RemoteInput{
			{Kind: engine.InputBlock, Block: 13}, {Kind: engine.InputEmpty},
			{Kind: engine.InputNode, Node: &engine.RemoteNode{Part: 3, Inputs: []engine.RemoteInput{{Kind: engine.InputBlock, Block: 12}}}},
		}}},
	}}
}

// encodeTask is appendTask onto an empty buffer, failing the test on error.
func encodeTask(t testing.TB, f taskFrame) []byte {
	t.Helper()
	body, err := appendTask(nil, &f)
	if err != nil {
		t.Fatalf("appendTask: %v", err)
	}
	return body
}

// TestWireTaskFrameRoundTrip: a task frame carries zero, one or several
// inline blocks (including empty ones), with or without its stage's
// operator table, ahead of the task itself. It parses back to the same
// ids, table, frames and task, and re-encodes byte-identically. A frame
// built in place on startFrame is byte-identical to writeFrame's.
func TestWireTaskFrameRoundTrip(t *testing.T) {
	blockCases := [][]inlineBlock{
		nil,
		{{id: 12, frame: []byte("twelve")}},
		{{id: 12, frame: []byte("twelve")}, {id: 13, frame: nil}, {id: 99, frame: bytes.Repeat([]byte{0xab}, 300)}},
	}
	for _, ops := range [][]engine.RemoteOp{nil, wireOps()} {
		for _, blocks := range blockCases {
			in := taskFrame{id: 55, stage: 8, ops: ops, blocks: blocks, task: wireTask()}
			body := encodeTask(t, in)
			f, err := parseTask(body)
			if err != nil || f.id != 55 || f.stage != 8 || f.nops != 2 {
				t.Fatalf("table %v, %d blocks: parseTask: id %d stage %d nops %d err %v", ops != nil, len(blocks), f.id, f.stage, f.nops, err)
			}
			if !reflect.DeepEqual(f.ops, ops) {
				t.Fatalf("table %v, %d blocks: ops %+v, want %+v", ops != nil, len(blocks), f.ops, ops)
			}
			if len(f.blocks) != len(blocks) {
				t.Fatalf("%d blocks: parsed %d", len(blocks), len(f.blocks))
			}
			for i := range f.blocks {
				if f.blocks[i].id != blocks[i].id || !bytes.Equal(f.blocks[i].frame, blocks[i].frame) {
					t.Fatalf("%d blocks: block %d = (%d, %q), want (%d, %q)", len(blocks), i, f.blocks[i].id, f.blocks[i].frame, blocks[i].id, blocks[i].frame)
				}
			}
			if !reflect.DeepEqual(f.task, wireTask()) {
				t.Fatalf("%d blocks: task mismatch: %+v", len(blocks), f.task)
			}
			if again := encodeTask(t, f); !bytes.Equal(again, body) {
				t.Fatalf("table %v, %d blocks: re-encoding differs", ops != nil, len(blocks))
			}
			var buf bytes.Buffer
			if err := writeFrame(&buf, msgTask, body); err != nil {
				t.Fatal(err)
			}
			frame, err := appendTask(startFrame(msgTask, 0), &in)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sealFrame(frame), buf.Bytes()) {
				t.Fatal("frame built in place differs from writeFrame's")
			}
		}
	}
	task := wireTask()
	if got := taskBlocks(nil, &task); !reflect.DeepEqual(got, []uint64{12, 13, 12}) {
		t.Fatalf("taskBlocks = %v, want [12 13 12]", got)
	}
}

// taskHead is the fixed head of a table-less task body with no inline
// blocks: id, stage, table flag, block count.
const taskHead = 8 + 8 + 1 + 4

// TestWireTaskFrameRejectsOverruns: a task frame whose block count, block
// length or block header overruns its body must fail to parse, naming
// the overrun rather than tripping over the task behind it.
func TestWireTaskFrameRejectsOverruns(t *testing.T) {
	task := wireTask()
	good := encodeTask(t, taskFrame{id: 7, blocks: []inlineBlock{{id: 1, frame: []byte("abcd")}}, task: task})
	two := encodeTask(t, taskFrame{id: 7, blocks: []inlineBlock{{id: 1, frame: make([]byte, 30)}, {id: 2, frame: []byte("x")}}, task: task})
	patch := func(off int, v uint32) []byte {
		b := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(b[off:], v)
		return b
	}
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"block count", patch(taskHead-4, 1<<30), "more than its body holds"},
		{"block length", patch(taskHead+8, 1<<20), "truncated"},
		{"truncated block header", two[:taskHead+blockHeader+30+5], "truncated"},
		{"truncated count", good[:taskHead-2], "truncated"},
	}
	for _, tc := range cases {
		if _, err := parseTask(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	// Truncated header.
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0})); err == nil || err == io.EOF {
		t.Fatalf("truncated header: got %v", err)
	}
	// Declared length zero.
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty frame: got %v", err)
	}
	// Declared length too short to hold the type byte and checksum.
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 3, 0, 0, 0})); err == nil || !strings.Contains(err.Error(), "runt") {
		t.Fatalf("runt frame: got %v", err)
	}
	// Declared length over the cap.
	huge := []byte{0xff, 0xff, 0xff, 0xff, byte(msgTask), 0, 0, 0, 0}
	if _, _, err := readFrame(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized frame: got %v", err)
	}
	// Body shorter than declared.
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgTaskResult, encodeTagged(1, true, []byte("abcdef"))); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, _, err := readFrame(bytes.NewReader(cut)); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated body: got %v", err)
	}
	// A flipped body bit must trip the checksum, not parse.
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)-1] ^= 0x01
	if _, _, err := readFrame(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt body: got %v", err)
	}
	// A flipped type byte is part of the frame but not the checksum: the
	// body still verifies, the bogus type is the receiver's problem (the
	// read loops ignore unknown types). Flipping the stored checksum
	// itself must fail loud though.
	badsum := append([]byte(nil), buf.Bytes()...)
	badsum[6] ^= 0x80 // inside the u32 checksum at bytes 5..8
	if _, _, err := readFrame(bytes.NewReader(badsum)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt checksum: got %v", err)
	}
	// Truncated message bodies.
	if _, err := parseHello([]byte{1, 2}); err == nil {
		t.Fatal("short hello parsed")
	}
	if _, _, err := parseHelloAck([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("short helloAck parsed")
	}
	if _, _, _, err := parseTagged([]byte{9}); err == nil {
		t.Fatal("short tagged parsed")
	}
	if _, _, _, err := parseTagged(encodeTagged(1, true, nil)[:8]); err == nil {
		t.Fatal("tagged without flag parsed")
	}
	// Malformed task trees behind a well-formed head, each failing for
	// its own reason.
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.BigEndian.AppendUint32(b, v)
		}
		return b
	}
	head := make([]byte, taskHead) // task 0, stage 0, no table, no blocks
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	deep := []byte{}
	for range maxTaskDepth + 1 {
		deep = append(deep, u32(0, 0, 1)...)
		deep = append(deep, byte(engine.InputNode))
	}
	deep = append(deep, u32(0, 0, 0)...)
	outside := wireTask()
	outside.Root.Op = 5
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"unknown input kind", cat(head, u32(0, 0, 0, 1), []byte{9}), "unknown task input kind 9"},
		{"zero input kind", cat(head, u32(0, 0, 0, 1), []byte{0}), "unknown task input kind 0"},
		{"operator outside table", encodeTask(t, taskFrame{ops: wireOps(), task: outside}), "refers to operator 5, outside its stage's 2-entry table"},
		{"nesting past the cap", cat(head, u32(0), deep), fmt.Sprintf("nests deeper than %d", maxTaskDepth)},
		{"input count overrun", cat(head, u32(0, 0, 0, 1<<20)), "declares 1048576 inputs, more than its body holds"},
		{"rootless task", cat(head, u32(0)), "has no root operator"},
		{"trailing bytes", cat(encodeTask(t, taskFrame{task: wireTask()}), []byte{0}), "1 trailing bytes"},
		{"bad table flag", cat(make([]byte, 16), []byte{2}, u32(0)), "bad operator-table flag 2"},
	} {
		if _, err := parseTask(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	// The encoder refuses what the parser would: no root, too deep.
	if _, err := appendTask(nil, &taskFrame{}); err == nil || !strings.Contains(err.Error(), "no root operator") {
		t.Fatalf("encoding a rootless task: got %v", err)
	}
	chain := &engine.RemoteNode{}
	for range maxTaskDepth + 1 {
		chain = &engine.RemoteNode{Inputs: []engine.RemoteInput{{Kind: engine.InputNode, Node: chain}}}
	}
	if _, err := appendTask(nil, &taskFrame{task: engine.RemoteTask{Root: chain}}); err == nil || !strings.Contains(err.Error(), "nests deeper") {
		t.Fatalf("encoding a too-deep task: got %v", err)
	}
}

// FuzzWireFrame feeds arbitrary bytes through the frame reader and every
// body parser: the driver reads these off a socket from another process,
// so none of them may panic or over-allocate on garbage.
func FuzzWireFrame(f *testing.F) {
	var seed bytes.Buffer
	writeFrame(&seed, msgHello, encodeHello(123))
	writeFrame(&seed, msgHelloAck, encodeHelloAck(1, 100*time.Millisecond))
	writeFrame(&seed, msgTaskResult, encodeTagged(7, true, []byte("data")))
	writeFrame(&seed, msgHeartbeat, nil)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, byte(msgTask)}) // runt: length below frameOverhead
	// A bare heartbeat frame (empty body checksums to 0) and the same
	// frame with a corrupted checksum.
	f.Add([]byte{0, 0, 0, 5, byte(msgHeartbeat), 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 5, byte(msgHeartbeat), 0xde, 0xad, 0xbe, 0xef})
	// A valid frame with one body bit flipped: must die on the checksum.
	flip := append([]byte(nil), seed.Bytes()...)
	flip[len(flip)-2] ^= 0x10
	f.Add(flip)
	frameOf := func(body []byte) []byte {
		var b bytes.Buffer
		writeFrame(&b, msgTask, body)
		return b.Bytes()
	}
	// Task frames in the retired JSON format (u64 id | u32 nblocks |
	// blocks | JSON task), which the parser must now reject.
	legacy := func(blocks []inlineBlock) []byte {
		b := binary.BigEndian.AppendUint64(nil, 3)
		b = binary.BigEndian.AppendUint32(b, uint32(len(blocks)))
		for _, blk := range blocks {
			b = binary.BigEndian.AppendUint64(b, blk.id)
			b = binary.BigEndian.AppendUint32(b, uint32(len(blk.frame)))
			b = append(b, blk.frame...)
		}
		return append(b, `{"part":3,"root":{"op":"identity","part":3,"inputs":[{"kind":"block","block":12}]}}`...)
	}
	// Task frames with zero, one and several inline blocks, with and
	// without the operator table, and ones whose block count or block
	// length overruns the body.
	for _, blocks := range [][]inlineBlock{nil, {{id: 4, frame: []byte("four")}}, {{id: 4}, {id: 5, frame: []byte("five")}}} {
		f.Add(frameOf(legacy(blocks)))
		for _, ops := range [][]engine.RemoteOp{nil, wireOps()} {
			body, _ := appendTask(nil, &taskFrame{id: 3, stage: 2, ops: ops, blocks: blocks, task: wireTask()})
			f.Add(frameOf(body))
			f.Add(body)
			if len(blocks) > 0 && ops == nil {
				for _, off := range []int{taskHead - 4, taskHead + 8} { // the block count, the first block's length
					bad := append([]byte(nil), body...)
					binary.BigEndian.PutUint32(bad[off:], 1<<20)
					f.Add(frameOf(bad))
				}
			}
		}
	}
	// taskReencodes parses body as a task and, if it is accepted, checks
	// that it encodes back to the very same bytes.
	taskReencodes := func(t *testing.T, body []byte) {
		tf, err := parseTask(body)
		if err != nil {
			return
		}
		taskBlocks(nil, &tf.task)
		again, err := appendTask(nil, &tf)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("accepted task body does not re-encode byte-identically (err %v):\n got %x\nwant %x", err, again, body)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The whole input as a bare task body too, so mutations reach the
		// task parser without first having to fix up a frame checksum.
		taskReencodes(t, data)
		r := bytes.NewReader(data)
		for i := 0; i < 64; i++ { // bound the walk on pathological inputs
			typ, body, err := readFrame(r)
			if err != nil {
				return
			}
			switch typ {
			case msgHello:
				parseHello(body)
			case msgHelloAck:
				parseHelloAck(body)
			case msgTask:
				taskReencodes(t, body)
			case msgTaskResult:
				parseTagged(body)
			}
		}
	})
}
