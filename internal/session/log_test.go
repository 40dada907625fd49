package session

import (
	"strings"
	"testing"
)

const logHeaderLine = `{"type":"session","job":{"scenario":{"exp":1},"policy":"Default","bench":"gzip","replicate":0,"seed":1,"solver":"cached","duration_s":0.5},"cadence_ticks":1}`

func TestParseLogRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", "empty log"},
		{"blank lines only", "\n\n  \n", "empty log"},
		{"event first", `{"type":"event","tick":0,"seq":0,"event":{"type":"fail_tsv","factor":2}}`, "must start with a session header"},
		{"duplicate header", logHeaderLine + "\n" + logHeaderLine, "duplicate session header"},
		{"unknown record type", logHeaderLine + "\n" + `{"type":"mystery"}`, `unknown record type "mystery"`},
		{"unknown header field", `{"type":"session","job":{},"cadence_ticks":1,"extra":1}`, "unknown field"},
		{"unknown event field", logHeaderLine + "\n" + `{"type":"event","tick":0,"seq":0,"event":{"type":"fail_tsv"},"extra":1}`, "unknown field"},
		{"negative tick", logHeaderLine + "\n" + `{"type":"event","tick":-1,"seq":0,"event":{"type":"fail_tsv","factor":2}}`, "negative tick"},
		{"tick regression", logHeaderLine + "\n" +
			`{"type":"event","tick":5,"seq":0,"event":{"type":"fail_tsv","factor":2}}` + "\n" +
			`{"type":"event","tick":4,"seq":1,"event":{"type":"fail_tsv","factor":2}}`, "precedes tick"},
		{"seq regression", logHeaderLine + "\n" +
			`{"type":"event","tick":5,"seq":1,"event":{"type":"fail_tsv","factor":2}}` + "\n" +
			`{"type":"event","tick":5,"seq":1,"event":{"type":"fail_tsv","factor":2}}`, "not after seq"},
		{"bad event payload", logHeaderLine + "\n" + `{"type":"event","tick":0,"seq":0,"event":{"type":"set_policy","policy":"NoSuch"}}`, "unknown policy"},
		{"zero cadence", strings.Replace(logHeaderLine, `"cadence_ticks":1`, `"cadence_ticks":0`, 1), "cadence 0"},
		{"not json", "hello\n", "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseLog(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseLog(%q) = %v, want error containing %q", tc.in, err, tc.want)
			}
		})
	}
}

func TestParseEventRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"unknown type", `{"type":"explode"}`, "unknown event type"},
		{"no type", `{}`, "unknown event type"},
		{"trailing data", `{"type":"fail_tsv"} {"type":"fail_tsv"}`, "trailing data"},
		{"trailing bracket", `{"type":"fail_tsv"}]`, "trailing data"},
		{"trailing brace", `{"type":"fail_tsv"}}`, "trailing data"},
		{"trailing garbage", `{"type":"fail_tsv"} garbage`, "trailing data"},
		{"unknown field", `{"type":"fail_tsv","boost":2}`, "unknown field"},
		{"set_policy unknown roster", `{"type":"set_policy","policy":"Nope"}`, "unknown policy"},
		{"set_policy foreign field", `{"type":"set_policy","policy":"CGate","factor":2}`, "foreign fields"},
		{"set_workload unknown bench", `{"type":"set_workload","bench":"nope"}`, "unknown benchmark"},
		{"set_workload foreign field", `{"type":"set_workload","bench":"gzip","policy":"CGate"}`, "foreign fields"},
		{"fail_tsv factor too big", `{"type":"fail_tsv","factor":1e9}`, "out of range"},
		{"fail_tsv negative factor", `{"type":"fail_tsv","factor":-1}`, "out of range"},
		{"fail_tsv foreign field", `{"type":"fail_tsv","from":1}`, "foreign fields"},
		{"migrate self", `{"type":"migrate","from":2,"to":2}`, "moves nothing"},
		{"migrate negative", `{"type":"migrate","from":-1,"to":2}`, "out of range"},
		{"migrate foreign field", `{"type":"migrate","from":0,"to":1,"bench":"gzip"}`, "foreign fields"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseEvent([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseEvent(%s) = %v, want error containing %q", tc.in, err, tc.want)
			}
		})
	}
}

// TestParseEventDefaultsTSVFactor also pins that whitespace after the
// event is accepted.
func TestParseEventDefaultsTSVFactor(t *testing.T) {
	ev, err := ParseEvent([]byte("{\"type\":\"fail_tsv\"}\n \t"))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Factor != DefaultTSVFailFactor {
		t.Fatalf("factor %g, want the default %g", ev.Factor, float64(DefaultTSVFailFactor))
	}
}
