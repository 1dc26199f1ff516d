package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to a castd node, used by one
// goroutine at a time. castload speaks HTTP on its own connections rather
// than through net/http's Transport: the transport's per-request goroutine
// hand-offs cost about as much CPU as castd spends on a small request, and
// on a 2-CPU host that generator cost competes with castd and blurs what
// is measured. Answers are parsed with http.ReadResponse.
type conn struct {
	addr string // host:port
	nc   net.Conn
	br   *bufio.Reader
	head []byte // request head scratch
}

// do sends one request and reads the whole answer into out. body is sent
// as application/xml when non-nil. Any error closes the connection; the
// next request dials a fresh one.
func (c *conn) do(method, path string, body []byte, traceparent string, out *bytes.Buffer) (int, error) {
	if c.nc == nil {
		nc, err := net.DialTimeout("tcp", c.addr, clientTimeout)
		if err != nil {
			return 0, err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	}
	status, keep, err := c.roundTrip(method, path, body, traceparent, out)
	if err != nil || !keep {
		c.close()
	}
	return status, err
}

func (c *conn) roundTrip(method, path string, body []byte, traceparent string, out *bytes.Buffer) (status int, keep bool, err error) {
	if err := c.nc.SetDeadline(time.Now().Add(clientTimeout)); err != nil {
		return 0, false, err
	}
	h := append(c.head[:0], method...)
	h = append(h, ' ')
	h = append(h, path...)
	h = append(h, " HTTP/1.1\r\nHost: "...)
	h = append(h, c.addr...)
	h = append(h, "\r\n"...)
	if body != nil {
		h = append(h, "Content-Type: application/xml\r\nContent-Length: "...)
		h = strconv.AppendInt(h, int64(len(body)), 10)
		h = append(h, "\r\n"...)
	}
	if traceparent != "" {
		h = append(h, "traceparent: "...)
		h = append(h, traceparent...)
		h = append(h, "\r\n"...)
	}
	h = append(h, "\r\n"...)
	c.head = h
	bufs := net.Buffers{h, body}
	if _, err := bufs.WriteTo(c.nc); err != nil {
		return 0, false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, false, err
	}
	out.Reset()
	_, err = out.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, !resp.Close, err
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.br = nil, nil
	}
}
