package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestListEnginesBuiltinsOnly pins -list-engines to the production
// engines: test fixtures (chaos, limited, sharded) must never be
// selectable on a running service.
func TestListEnginesBuiltinsOnly(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list-engines"}, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "parallel\nserial\n"; got != want {
		t.Errorf("-list-engines printed %q, want %q", got, want)
	}
}

// TestHTTPServerTimeouts pins the connection timeouts on the server
// oscserve listens with, and checks the header timeout is enforced: a
// client that never finishes its headers is disconnected.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts header %s read %s idle %s, want %s %s %s",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout, readHeaderTimeout, readTimeout, idleTimeout)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs.ReadHeaderTimeout = 50 * time.Millisecond
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		if err := hs.Close(); err != nil {
			t.Error(err)
		}
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n")); err != nil { // headers never end
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
		t.Log("server answered the stalled request before closing") // a 408 is also a disconnect
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Error("server kept a stalled-header connection open past its ReadHeaderTimeout")
	}
}
