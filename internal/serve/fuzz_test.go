package serve

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseScript is the decoder-hardening fuzz target: arbitrary bytes must
// either parse into a script or return an error — never panic — and any
// script that does parse must round-trip exactly (WriteScript then
// ParseScript yields a script whose serialization is byte-identical, the same
// contract the hand-written round-trip tests pin on recorded streams).
//
// Run the full search with
//
//	go test -run '^$' -fuzz FuzzParseScript -fuzztime 20s ./internal/serve
func FuzzParseScript(f *testing.F) {
	f.Add([]byte("# soclserved event script v1\nmeta nodes=4 radius=0x1.999999999999ap-02 toposeed=1 catseed=1 lambda=0x1p-01 budget=0x1.9p+06 slotmin=0x1.4p+02 slots=3 routeseed=7 cloudtransfer=0x0p+00 cloudcompute=0x0p+00\narrive 0 0 2 0x1p-03 0x1p-04 0x1.4p+03 0,1,2 0x1p-05,0x1p-05\ndepart 1 0\nmove 1 1 3\nfault 1 node-crash 2\nfault 2 link-degrade 0 1 0x1p-02\nfault 2 storage-shrink 3 0x1p-01\n"))
	f.Add([]byte("meta nodes=1\narrive 0 0 0 1 2 3 0 -\n"))
	f.Add([]byte("meta\n"))
	f.Add([]byte("arrive 0 0 0 NaN +Inf -Inf 1 -\n"))
	f.Add([]byte("fault 0 node-recover 0\nmeta nodes=2 radius=1\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScript(bytes.NewReader(data))
		if err != nil {
			if s != nil {
				t.Fatalf("ParseScript returned both a script and an error: %v", err)
			}
			return
		}
		var first bytes.Buffer
		if werr := WriteScript(&first, s); werr != nil {
			t.Fatalf("WriteScript rejected a parsed script: %v", werr)
		}
		s2, err := ParseScript(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reparse of serialized script failed: %v\nserialized:\n%s", err, first.String())
		}
		var second bytes.Buffer
		if werr := WriteScript(&second, s2); werr != nil {
			t.Fatalf("re-serialize failed: %v", werr)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("script round trip not byte-identical:\n--- first\n%s\n--- second\n%s",
				first.String(), second.String())
		}
	})
}

// FuzzParseEventLine hardens the shared per-event decoder the wire codec
// (internal/transport) feeds with network-supplied lines.
func FuzzParseEventLine(f *testing.F) {
	f.Add("arrive 0 0 2 0x1p-03 0x1p-04 0x1.4p+03 0,1,2 0x1p-05,0x1p-05")
	f.Add("depart 3 17")
	f.Add("move 3 17 4")
	f.Add("fault 1 link-degrade 0 1 0x1p-02")
	f.Add("fault 9 storage-restore 3 1")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		ev, err := ParseEventLine(line)
		if err != nil {
			return
		}
		out, err := FormatEvent(&ev)
		if err != nil {
			t.Fatalf("FormatEvent rejected a parsed event %+v: %v", ev, err)
		}
		ev2, err := ParseEventLine(out)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", out, err)
		}
		out2, err := FormatEvent(&ev2)
		if err != nil {
			t.Fatalf("re-format failed: %v", err)
		}
		if out != out2 {
			t.Fatalf("event line not stable: %q vs %q", out, out2)
		}
		if strings.TrimSpace(line) != "" && ev.Kind.String() == "" {
			t.Fatalf("parsed event has no kind: %+v", ev)
		}
	})
}

// parseEventLineFields is the reference event-line parser ParseEventLine
// must match: strings.Fields to split the line, strings.Split to split the
// chain and edge lists.
func parseEventLineFields(line string) (Event, error) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return Event{}, fmt.Errorf("serve: empty event line")
	}
	switch f[0] {
	case "arrive":
		if len(f) != 9 {
			return Event{}, fmt.Errorf("arrive wants 8 fields, got %d", len(f)-1)
		}
		ev := Event{Kind: EvArrive}
		var err error
		if ev.Slot, err = strconv.Atoi(f[1]); err == nil {
			ev.ID, err = strconv.Atoi(f[2])
		}
		if err == nil {
			ev.Req.Home, err = strconv.Atoi(f[3])
		}
		if err == nil {
			ev.Req.DataIn, err = parseF(f[4])
		}
		if err == nil {
			ev.Req.DataOut, err = parseF(f[5])
		}
		if err == nil {
			ev.Req.Deadline, err = parseF(f[6])
		}
		if err != nil {
			return Event{}, err
		}
		for _, c := range strings.Split(f[7], ",") {
			svc, err := strconv.Atoi(c)
			if err != nil {
				return Event{}, err
			}
			ev.Req.Chain = append(ev.Req.Chain, svc)
		}
		if f[8] != "-" {
			for _, c := range strings.Split(f[8], ",") {
				v, err := parseF(c)
				if err != nil {
					return Event{}, err
				}
				ev.Req.EdgeData = append(ev.Req.EdgeData, v)
			}
		}
		if len(ev.Req.EdgeData) != len(ev.Req.Chain)-1 {
			return Event{}, fmt.Errorf("edge data length %d != chain length %d - 1",
				len(ev.Req.EdgeData), len(ev.Req.Chain))
		}
		ev.Req.ID = ev.ID
		return ev, nil
	case "depart", "move":
		if (f[0] == "depart" && len(f) != 3) || (f[0] == "move" && len(f) != 4) {
			return Event{}, fmt.Errorf("%s wants %d fields", f[0], map[string]int{"depart": 2, "move": 3}[f[0]])
		}
		ev := Event{Kind: EvDepart}
		if f[0] == "move" {
			ev.Kind = EvMove
		}
		var err error
		if ev.Slot, err = strconv.Atoi(f[1]); err == nil {
			ev.ID, err = strconv.Atoi(f[2])
		}
		if err == nil && ev.Kind == EvMove {
			ev.Node, err = strconv.Atoi(f[3])
		}
		if err != nil {
			return Event{}, err
		}
		return ev, nil
	case "fault":
		return parseFault(f[1:], len(f)-1)
	default:
		return Event{}, fmt.Errorf("unknown directive %q", f[0])
	}
}

// FuzzEventLineDifferential: ParseEventLine, which walks fields in place,
// accepts and rejects exactly the lines the strings.Fields reference does,
// with the same error text, and yields the same event bits (%#v prints
// every float in its shortest round-tripping form and tells nil slices from
// empty ones). The seeds cover Unicode and invalid-UTF-8 separators and
// lines with more fields than any event has.
//
//	go test -run '^$' -fuzz '^FuzzEventLineDifferential$' -fuzztime 20s ./internal/serve
func FuzzEventLineDifferential(f *testing.F) {
	for _, s := range []string{
		"arrive 0 0 2 0x1p-03 0x1p-04 0x1.4p+03 0,1,2 0x1p-05,0x1p-05",
		"arrive 0 0 2 NaN -Inf +Inf 7 -",
		"arrive 0 0 2 1 1 1 1,,2 1,2",
		"arrive 0 0 2 1 1 1 , -",
		"arrive 1 2 3 4 5 6 7 8 9 10",
		"depart 3 17",
		"\tmove\v3\f17\r4\n",
		"depart 1 2",
		"depart　1\u00852",
		"depart 1\xff 2",
		"depart\xc2 1 2",
		"fault 1 link-degrade 0 1 0x1p-02",
		"fault 1 link-degrade 0 1 0x1p-02 3 4 5 6 7",
		"fault x node-crash 1 2 3 4 5 6 7 8",
		"fault 9 storage-restore 3 1",
		"fault 2 node-recover",
		" ",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, gerr := ParseEventLine(line)
		want, werr := parseEventLineFields(line)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%q: error %v, reference %v", line, gerr, werr)
		}
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("%q: event\n%s\nreference\n%s", line, g, w)
		}
	})
}
