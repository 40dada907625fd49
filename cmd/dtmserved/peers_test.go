package main

import (
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestLoadPeers pins the peer-list parser: commas and newlines (CRLF
// included) both separate entries, blanks and surrounding spaces are
// dropped, -peers wins over -peers-file, a peers file that already
// exists is read at once, and a duplicate or a list of fewer than two
// nodes is an error. No case waits for a missing file.
func TestLoadPeers(t *testing.T) {
	file := filepath.Join(t.TempDir(), "peers")
	if err := os.WriteFile(file, []byte("http://10.0.0.1:8080\nhttp://10.0.0.2:8080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "never-written")
	for _, tc := range []struct {
		name, peers, file string
		want              []string // nil: an error
	}{
		{"comma-separated", "http://a:1,http://b:2,http://c:3", missing,
			[]string{"http://a:1", "http://b:2", "http://c:3"}},
		{"newline-separated", "http://a:1\r\n\n  http://b:2 \n", missing,
			[]string{"http://a:1", "http://b:2"}},
		{"mixed separators", "http://a:1, http://b:2\nhttp://c:3,", missing,
			[]string{"http://a:1", "http://b:2", "http://c:3"}},
		{"existing peers file", "", file,
			[]string{"http://10.0.0.1:8080", "http://10.0.0.2:8080"}},
		{"-peers wins over the file", "http://a:1,http://b:2", file,
			[]string{"http://a:1", "http://b:2"}},
		{"duplicate", "http://a:1,http://b:2,http://a:1", missing, nil},
		{"one node", "http://a:1", missing, nil},
		{"only separators", " , \n", missing, nil},
	} {
		got, err := loadPeers(tc.peers, tc.file)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("%s: got %v and no error, want an error", tc.name, got)
		case tc.want != nil && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != nil && !reflect.DeepEqual(got, tc.want):
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestHostPort pins how a peer base URL maps to the host and port a
// listener is matched against: an explicit port as written, http's
// default 80 and https's default 443, and an error for any other
// scheme or an unparsable URL.
func TestHostPort(t *testing.T) {
	for _, tc := range []struct {
		peer, host, port string
		wantErr          bool
	}{
		{"http://10.0.0.1:8080", "10.0.0.1", "8080", false},
		{"http://node-a", "node-a", "80", false},
		{"https://node-a", "node-a", "443", false},
		{"https://[::1]:8443/", "::1", "8443", false},
		{"ftp://node-a:21", "", "", true},
		{"node-a:8080", "", "", true},
		{"http://%zz", "", "", true},
	} {
		host, port, err := hostPort(tc.peer)
		switch {
		case tc.wantErr && err == nil:
			t.Errorf("%s: got %s, %s and no error, want an error", tc.peer, host, port)
		case !tc.wantErr && err != nil:
			t.Errorf("%s: %v", tc.peer, err)
		case !tc.wantErr && (host != tc.host || port != tc.port):
			t.Errorf("%s: got host %q port %q, want %q %q", tc.peer, host, port, tc.host, tc.port)
		}
	}
}

// TestResolveSelf pins how a node finds itself in the peer list: a
// wildcard bind matches on the port alone, a concrete bind on host and
// port, and no match, two matches or a malformed peer URL is an error.
func TestResolveSelf(t *testing.T) {
	tcp := func(ip string, port int) net.Addr {
		return &net.TCPAddr{IP: net.ParseIP(ip), Port: port}
	}
	for _, tc := range []struct {
		name  string
		peers []string
		bound net.Addr
		want  string // "": an error
	}{
		{"IPv4 wildcard matches on port", []string{"http://10.0.0.1:8080", "http://10.0.0.2:9090"}, tcp("0.0.0.0", 9090), "http://10.0.0.2:9090"},
		{"IPv6 wildcard matches on port", []string{"http://node-a:8080", "http://node-b:9090"}, tcp("::", 8080), "http://node-a:8080"},
		{"empty host is a wildcard", []string{"http://node-a", "http://node-b:9090"}, &net.TCPAddr{Port: 80}, "http://node-a"},
		{"concrete bind matches host and port", []string{"http://127.0.0.1:8080", "http://127.0.0.2:8080"}, tcp("127.0.0.2", 8080), "http://127.0.0.2:8080"},
		{"no match", []string{"http://127.0.0.1:8080", "http://127.0.0.2:8080"}, tcp("127.0.0.1", 7070), ""},
		{"concrete host differs", []string{"http://127.0.0.1:8080", "http://127.0.0.2:8080"}, tcp("127.0.0.3", 8080), ""},
		{"two matches", []string{"http://node-a:8080", "http://node-b:8080"}, tcp("0.0.0.0", 8080), ""},
		{"malformed peer", []string{"http://127.0.0.1:8080", "ftp://127.0.0.2:8080"}, tcp("127.0.0.1", 8080), ""},
	} {
		got, err := resolveSelf(tc.peers, tc.bound)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("%s: got %s and no error, want an error", tc.name, got)
		case tc.want != "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case got != tc.want:
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}
