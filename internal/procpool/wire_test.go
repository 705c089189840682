package procpool

import (
	"bytes"
	"encoding/binary"
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

// wireTask is a task reading block 12 directly and blocks 13 and 12 again
// through a concat, for the task-frame tests.
func wireTask() *engine.RemoteTask {
	return &engine.RemoteTask{Part: 3, Root: &engine.RemoteNode{
		Op: "identity", Part: 3,
		Inputs: []engine.RemoteInput{{Kind: "block", Block: 12}, {Kind: "concat", Concat: []engine.RemoteInput{
			{Kind: "block", Block: 13}, {Kind: "empty"},
			{Kind: "node", Node: &engine.RemoteNode{Op: "identity", Inputs: []engine.RemoteInput{{Kind: "block", Block: 12}}}},
		}}},
	}}
}

// TestWireTaskFrameRoundTrip: a task frame carries zero, one or several
// inline blocks (including empty ones) ahead of the task itself, and
// parses back to the same ids, frames and task.
func TestWireTaskFrameRoundTrip(t *testing.T) {
	cases := [][]inlineBlock{
		nil,
		{{id: 12, frame: []byte("twelve")}},
		{{id: 12, frame: []byte("twelve")}, {id: 13, frame: nil}, {id: 99, frame: bytes.Repeat([]byte{0xab}, 300)}},
	}
	for _, blocks := range cases {
		body, err := encodeTask(55, blocks, wireTask())
		if err != nil {
			t.Fatalf("encodeTask: %v", err)
		}
		id, got, task, err := parseTask(body)
		if err != nil || id != 55 {
			t.Fatalf("%d blocks: parseTask: id %d err %v", len(blocks), id, err)
		}
		if len(got) != len(blocks) {
			t.Fatalf("%d blocks: parsed %d", len(blocks), len(got))
		}
		for i := range got {
			if got[i].id != blocks[i].id || !bytes.Equal(got[i].frame, blocks[i].frame) {
				t.Fatalf("%d blocks: block %d = (%d, %q), want (%d, %q)", len(blocks), i, got[i].id, got[i].frame, blocks[i].id, blocks[i].frame)
			}
		}
		if !reflect.DeepEqual(task, wireTask()) {
			t.Fatalf("%d blocks: task mismatch: %+v", len(blocks), task)
		}
	}
	if got := taskBlocks(nil, wireTask()); !reflect.DeepEqual(got, []uint64{12, 13, 12}) {
		t.Fatalf("taskBlocks = %v, want [12 13 12]", got)
	}
}

// TestWireTaskFrameRejectsOverruns: a task frame whose block count, block
// length or block header overruns its body must fail to parse, naming
// the overrun rather than tripping over the JSON behind it.
func TestWireTaskFrameRejectsOverruns(t *testing.T) {
	good, err := encodeTask(7, []inlineBlock{{id: 1, frame: []byte("abcd")}}, wireTask())
	if err != nil {
		t.Fatal(err)
	}
	two, err := encodeTask(7, []inlineBlock{{id: 1, frame: make([]byte, 30)}, {id: 2, frame: []byte("x")}}, wireTask())
	if err != nil {
		t.Fatal(err)
	}
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
		{"block count", patch(8, 1<<30), "more than its body holds"},
		{"block length", patch(20, 1<<20), "truncated"},
		{"truncated block header", two[:12+blockHeader+30+5], "truncated"},
		{"truncated count", good[:10], "truncated"},
	}
	for _, tc := range cases {
		if _, _, _, err := parseTask(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
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
	// A well-formed header (id, zero inline blocks) in front of bad JSON
	// and of a task without a root: each fails for its own reason.
	if _, _, _, err := parseTask(append(make([]byte, 12), '{')); err == nil || !strings.Contains(err.Error(), "unmarshal") {
		t.Fatalf("bad task json: got %v", err)
	}
	if _, _, _, err := parseTask(append(make([]byte, 12), []byte(`{}`)...)); err == nil || !strings.Contains(err.Error(), "no root operator") {
		t.Fatalf("rootless task: got %v", err)
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
	// Task frames with zero, one and several inline blocks, and ones whose
	// block count or block length overruns the body.
	taskFrame := func(body []byte) []byte {
		var b bytes.Buffer
		writeFrame(&b, msgTask, body)
		return b.Bytes()
	}
	for _, blocks := range [][]inlineBlock{nil, {{id: 4, frame: []byte("four")}}, {{id: 4}, {id: 5, frame: []byte("five")}}} {
		body, _ := encodeTask(3, blocks, wireTask())
		f.Add(taskFrame(body))
		if len(blocks) > 0 {
			for _, off := range []int{8, 20} { // the block count, the first block's length
				bad := append([]byte(nil), body...)
				binary.BigEndian.PutUint32(bad[off:], 1<<20)
				f.Add(taskFrame(bad))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
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
				if _, _, task, err := parseTask(body); err == nil {
					taskBlocks(nil, task)
				}
			case msgTaskResult:
				parseTagged(body)
			}
		}
	})
}
