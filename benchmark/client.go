package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
)

// client is one load-generating connection: HTTP/1.1 over a persistent
// TCP connection with reused buffers. The generator shares the box's two
// cores with predictd, so what it costs per request is CPU the server
// does not get; net/http's client would spend more per request than the
// warm handler does. predictd always sets Content-Length, which is what
// makes the fixed-frame read below correct.
type client struct {
	host string
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	body []byte
}

func dial(host string) (*client, error) {
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return &client{host: host, conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one request and returns the status and the response body. The
// body is valid until the next call.
func (c *client) do(method, path string, payload []byte) (int, []byte, error) {
	w := append(c.wbuf[:0], method...)
	w = append(w, ' ')
	w = append(w, path...)
	w = append(w, " HTTP/1.1\r\nHost: "...)
	w = append(w, c.host...)
	w = append(w, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	w = strconv.AppendInt(w, int64(len(payload)), 10)
	w = append(w, "\r\n\r\n"...)
	w = append(w, payload...)
	c.wbuf = w
	if _, err := c.conn.Write(w); err != nil {
		return 0, nil, err
	}

	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	bodyLen := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			break
		}
		const name = "Content-Length:"
		if len(line) > len(name) && string(line[:len(name)]) == name {
			v := bytes.TrimSpace(line[len(name):])
			if bodyLen, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if bodyLen < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length (status %d)", status)
	}
	if cap(c.body) < bodyLen {
		c.body = make([]byte, bodyLen)
	}
	c.body = c.body[:bodyLen]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

func (c *client) post(path string, payload []byte) (int, []byte, error) {
	return c.do("POST", path, payload)
}

func (c *client) get(path string) (int, []byte, error) {
	return c.do("GET", path, nil)
}
