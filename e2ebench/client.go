package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// conn is one HTTP/1.1 keep-alive connection to the daemon: the transport
// allows a single connection, so a conn's requests go one after another and
// the benchmark's connection count is the number of conns it drives.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// reply is one completed request: status, body size and the client-observed
// time from sending until the last body byte arrived (decoding excluded).
type reply struct {
	status  int
	bytes   int
	elapsed time.Duration
}

// do sends one request and, for a 2xx answer, decodes the JSON body into
// out (when non-nil). A non-2xx answer is returned as an error carrying the
// daemon's message.
func (c *conn) do(method, path, contentType string, body []byte, out any) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, bytes: c.buf.Len(), elapsed: time.Since(start)}
	if err != nil {
		return r, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return r, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	if out != nil {
		if err := json.Unmarshal(c.buf.Bytes(), out); err != nil {
			return r, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return r, nil
}

// body returns a copy of the last response body.
func (c *conn) body() []byte { return append([]byte(nil), c.buf.Bytes()...) }

// postJSON sends v as a JSON body.
func (c *conn) postJSON(path string, v, out any) (reply, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return reply{}, err
	}
	return c.do(http.MethodPost, path, "application/json", b, out)
}

// scrape fetches and parses /metrics.
func (c *conn) scrape() (exposition, error) {
	if _, err := c.do(http.MethodGet, "/metrics", "", nil, nil); err != nil {
		return nil, err
	}
	return parseExposition(bytes.NewReader(c.buf.Bytes()))
}
