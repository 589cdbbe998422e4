package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// loopback serves a handler on 127.0.0.1 for the life of a run.
type loopback struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { lb.done <- lb.hs.Serve(ln) }()
	return lb, nil
}

// stop closes the server and its connections and waits for Serve to
// return. Callers stop a server only once its work is done. (Shutdown would
// wait five seconds on any connection a client dialed but never used.)
func (lb *loopback) stop() error {
	err := lb.hs.Close()
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// expvarMap reads one published map from the server's /debug/vars.
func expvarMap(client *http.Client, url, name string) (map[string]float64, error) {
	resp, err := client.Get(url + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var all map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(all[name], &m); err != nil {
		return nil, fmt.Errorf("expvar %s: %w", name, err)
	}
	out := map[string]float64{}
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}
