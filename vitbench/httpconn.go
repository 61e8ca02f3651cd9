package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"syscall"
	"time"
)

// httpConn is one keep-alive HTTP/1.1 connection driven with blocking
// system calls from a single OS thread. The generator bypasses net/http
// on purpose: the client's goroutine hand-offs and the runtime's
// millisecond netpoll timer granularity would otherwise add a few
// hundred microseconds of generator noise to sub-millisecond responses.
// Every response the daemon sends carries Content-Length, so that is the
// only framing the reader understands; anything else is an error.
type httpConn struct {
	port    int
	timeout time.Duration
	file    *os.File // owns fd; kept so its finalizer cannot close fd early
	fd      int
	buf     []byte
}

// dialHTTP connects to 127.0.0.1:port. timeout bounds every read and
// write on the connection (SO_RCVTIMEO / SO_SNDTIMEO).
func dialHTTP(port int, timeout time.Duration) (*httpConn, error) {
	c, err := net.DialTCP("tcp", nil, &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
	if err != nil {
		return nil, err
	}
	if err := c.SetNoDelay(true); err != nil {
		c.Close()
		return nil, err
	}
	// File duplicates the socket in blocking mode; the net.Conn copy is
	// no longer needed.
	f, err := c.File()
	c.Close()
	if err != nil {
		return nil, err
	}
	fd := int(f.Fd())
	tv := syscall.NsecToTimeval(timeout.Nanoseconds())
	for _, opt := range []int{syscall.SO_RCVTIMEO, syscall.SO_SNDTIMEO} {
		if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, opt, &tv); err != nil {
			f.Close()
			return nil, fmt.Errorf("setting socket timeout: %w", err)
		}
	}
	return &httpConn{port: port, timeout: timeout, file: f, fd: fd, buf: make([]byte, 64<<10)}, nil
}

func (c *httpConn) close() { c.file.Close() }

// do writes one pre-rendered request and reads its response. The body
// aliases the connection's buffer and is valid until the next call.
func (c *httpConn) do(req []byte) (status int, body []byte, err error) {
	for len(req) > 0 {
		n, err := syscall.Write(c.fd, req)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, nil, fmt.Errorf("write: %w", err)
		}
		req = req[n:]
	}
	have, headerEnd, total := 0, -1, -1
	for total < 0 || have < total {
		if have == len(c.buf) {
			c.buf = append(c.buf, make([]byte, len(c.buf))...)
		}
		n, err := syscall.Read(c.fd, c.buf[have:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, nil, fmt.Errorf("read: %w", err)
		}
		if n == 0 {
			return 0, nil, errors.New("read: connection closed by server")
		}
		have += n
		if headerEnd < 0 {
			if headerEnd = bytes.Index(c.buf[:have], []byte("\r\n\r\n")); headerEnd >= 0 {
				headerEnd += 4
				var clen int
				if status, clen, err = parseHead(c.buf[:headerEnd]); err != nil {
					return 0, nil, err
				}
				total = headerEnd + clen
				if total > len(c.buf) {
					c.buf = append(c.buf, make([]byte, total-len(c.buf))...)
				}
			}
		}
	}
	if have != total {
		return 0, nil, fmt.Errorf("read: %d bytes beyond the response", have-total)
	}
	return status, c.buf[headerEnd:total], nil
}

// parseHead returns the status code and Content-Length of a response
// head. A response that closes the connection or is not framed by
// Content-Length is refused.
func parseHead(head []byte) (status, clen int, err error) {
	lines := bytes.Split(head[:len(head)-4], []byte("\r\n"))
	f := bytes.Fields(lines[0])
	if len(f) < 2 || !bytes.HasPrefix(f[0], []byte("HTTP/1.")) {
		return 0, 0, fmt.Errorf("bad status line %q", lines[0])
	}
	if status, err = strconv.Atoi(string(f[1])); err != nil {
		return 0, 0, fmt.Errorf("bad status line %q", lines[0])
	}
	clen = -1
	for _, l := range lines[1:] {
		k, v, ok := bytes.Cut(l, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if clen, err = strconv.Atoi(string(v)); err != nil || clen < 0 {
				return 0, 0, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Connection")) && bytes.EqualFold(v, []byte("close")):
			return 0, 0, errors.New("server closed the keep-alive connection")
		}
	}
	if clen < 0 {
		return 0, 0, errors.New("response without Content-Length")
	}
	return status, clen, nil
}

// renderGET and renderPOST build the exact bytes of a request, so the
// timed phase only copies them to the socket.
func renderGET(target string) []byte {
	return []byte("GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
}

func renderPOST(target string, body []byte) []byte {
	head := "POST " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(head), body...)
}
