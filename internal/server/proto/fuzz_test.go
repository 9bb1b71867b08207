package proto

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"armus/internal/deps"
)

// FuzzResponse feeds arbitrary bytes to the response reader, the one
// decoder of the service boundary that reads what a server (or whatever
// answers on its port) sends to the SDK. On every input:
//
//  1. it returns a response or an error — no panic, and nothing is
//     allocated for a count the frame could not hold (wire.Cursor.Length);
//  2. an accepted response re-encodes (AppendResponse) to a frame that
//     reads back equal: read∘append is the identity on what read accepts
//     (byte equality is not required: varints have long spellings);
//  3. a Response a previous, larger frame was read into shows nothing of
//     it — the SDK's read loop reuses one Response for every frame.
func FuzzResponse(f *testing.F) {
	for _, r := range sampleResponses() {
		frame, err := AppendResponse(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Add(append([]byte{byte(len(aliasVerdict))}, aliasVerdict...))
	f.Add([]byte{0x03, 0x04, 0xff, 0x7f}) // a report claiming 16383 tasks
	// A goodbye longer than AppendResponse would send: 305 payload bytes.
	f.Add(append([]byte{0xb1, 0x02, byte(RespGoodbye), ByeSlow, 0xad, 0x02}, make([]byte, 301)...))

	big := Response{Kind: RespGate, Task: 1, Msg: "left over",
		Tasks:     []deps.TaskID{11, 12, 13, 14},
		Resources: []deps.Resource{{Phaser: 21, Phase: 1}, {Phaser: 22, Phase: 2}, {Phaser: 23, Phase: 3}}}
	bigFrame, err := AppendResponse(nil, &big)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh Response
		if err := ReadResponse(bufio.NewReader(bytes.NewReader(data)), &fresh); err != nil {
			return // rejected: a fine outcome for arbitrary bytes
		}
		var warm Response
		if err := ReadResponse(bufio.NewReader(bytes.NewReader(bigFrame)), &warm); err != nil {
			t.Fatal(err)
		}
		if err := ReadResponse(bufio.NewReader(bytes.NewReader(data)), &warm); err != nil {
			t.Fatalf("accepted into a fresh Response, rejected into a used one: %v", err)
		}
		if !sameResponse(&warm, &fresh) {
			t.Fatalf("a reused Response leaks its previous frame:\n%+v\nvs\n%+v", warm, fresh)
		}
		// AppendResponse cuts a goodbye's detail to 256 bytes, in the
		// Response it is handed too: fresh is what was sent from here on.
		frame, err := AppendResponse(nil, &fresh)
		if err != nil {
			t.Fatalf("accepted response %+v does not re-encode: %v", fresh, err)
		}
		var again Response
		if err := ReadResponse(bufio.NewReader(bytes.NewReader(frame)), &again); err != nil {
			t.Fatalf("re-encoded response rejected: %v", err)
		}
		if !sameResponse(&again, &fresh) {
			t.Fatalf("round trip changed the response:\n%+v\nvs\n%+v", again, fresh)
		}
	})
}

// sameResponse compares what a caller can see: not the frame buffer, and
// an empty list is an empty list whatever storage is behind it.
func sameResponse(a, b *Response) bool {
	x, y := *a, *b
	x.buf, y.buf = nil, nil
	if len(x.Tasks) == 0 && len(y.Tasks) == 0 {
		x.Tasks, y.Tasks = nil, nil
	}
	if len(x.Resources) == 0 && len(y.Resources) == 0 {
		x.Resources, y.Resources = nil, nil
	}
	return reflect.DeepEqual(x, y)
}
