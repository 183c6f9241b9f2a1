package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sort"
	"time"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/xrand"
)

const (
	wireKeys = 4096
	// replayKeep is how many requests per caller are kept for the codec
	// replay (wire.parse_ns, wire.encode_ns).
	replayKeep = 1 << 15
)

// wireCaller is one closed-loop alekv/1 connection.
type wireCaller struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	rng  *xrand.State
	mix  load.Mix

	replies   uint64
	sets      int
	freshIncr int
	removed   int
	hits      uint64
	lookups   uint64
	sent      []server.Request
}

func (c *wireCaller) next() server.Request {
	key := c.rng.Uint64n(wireKeys) + 1
	n := c.rng.Intn(c.mix.Get + c.mix.Set + c.mix.Del + c.mix.Incr)
	switch {
	case n < c.mix.Get:
		return server.Request{Verb: server.VerbGet, Key: key}
	case n < c.mix.Get+c.mix.Set:
		return server.Request{Verb: server.VerbSet, Key: key, Arg: key*1000 + c.rng.Uint64n(1000)}
	case n < c.mix.Get+c.mix.Set+c.mix.Del:
		return server.Request{Verb: server.VerbDel, Key: key}
	}
	return server.Request{Verb: server.VerbIncr, Key: key, Arg: 1}
}

func (c *wireCaller) op(r *opRec) error {
	req := c.next()
	if len(c.sent) < replayKeep {
		c.sent = append(c.sent, req)
	}
	t0 := nanotime()
	err := server.WriteRequest(c.bw, req)
	if err == nil {
		err = c.bw.Flush()
	}
	t1 := nanotime()
	if err != nil {
		return fmt.Errorf("send: %w", err)
	}
	rep, err := server.ReadReply(c.br)
	t2 := nanotime()
	if err != nil {
		return fmt.Errorf("reply: %w", err)
	}
	r.lat = t2 - t0
	if r.traced {
		r.addSpan(spanSend, span{t0, t1})
		r.addSpan(spanWait, span{t1, t2})
	}
	c.replies++
	return c.account(req, rep)
}

// account checks that the reply has a kind the verb allows and updates
// the live-key tally.
func (c *wireCaller) account(req server.Request, rep server.Reply) error {
	if rep.IsErr() {
		return fmt.Errorf("%s %d: error reply %s: %s", req.Verb, req.Key, rep.Code, rep.Str)
	}
	ok := false
	switch req.Verb {
	case server.VerbGet:
		c.lookups++
		ok = rep.Kind == ':' || rep.IsNil()
		if rep.Kind == ':' {
			c.hits++
		}
	case server.VerbSet:
		c.sets++
		ok = rep.Kind == '+' && rep.Str == "OK"
	case server.VerbDel:
		ok = rep.Kind == ':' && rep.Val <= 1
		if ok {
			c.removed += int(rep.Val)
		}
	case server.VerbIncr:
		ok = rep.Kind == ':' && rep.Val >= 1
		// Set values are at least 1000, so a new value of 1 means INCR
		// created the key.
		if rep.Val == 1 {
			c.freshIncr++
		}
	}
	if !ok {
		return fmt.Errorf("%s %d: reply kind %q: %w", req.Verb, req.Key, rep.Kind, errWrong)
	}
	return nil
}

// newWireEpisode starts aleserve in-process (kyoto store, 2 workers) on
// loopback TCP, prepopulates half the keys through a store session and
// connects the callers.
func newWireEpisode(seed uint64, traced bool) (*episode, error) {
	ps := &policySet{traced: traced, outer: isMethodLock}
	cfg := server.DefaultConfig()
	cfg.Workers = callers
	cfg.Policy = ps.factory
	if traced {
		cfg.Obs = obs.New()
		cfg.Timing = true
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ep := &episode{rt: srv.Runtime(), coll: srv.Collector(), ps: ps}
	if !traced {
		ep.coll = nil
	}
	var cs []*wireCaller
	ep.close = func() {
		for _, c := range cs {
			c.conn.Close()
		}
		// A server worker stuck inside the store never returns from
		// Drain; leave it behind rather than hang the run.
		bounded(time.Second, srv.Close)
	}
	sess := srv.NewSession()
	prepop := 0
	for k := uint64(1); k <= wireKeys; k += 2 {
		if err := sess.Set(k, k*1000); err != nil {
			ep.close()
			return nil, fmt.Errorf("prepopulate: %w", err)
		}
		prepop++
	}
	for i := 0; i < callers; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			ep.close()
			return nil, err
		}
		c := &wireCaller{
			conn: conn,
			br:   bufio.NewReader(conn),
			bw:   bufio.NewWriter(conn),
			rng:  callerRNG(seed, i),
			mix:  load.DefaultMix(),
		}
		cs = append(cs, c)
		ep.ops = append(ep.ops, c.op)
	}
	ep.setReadDeadline = func(t time.Time) {
		for _, c := range cs {
			_ = c.conn.SetReadDeadline(t)
		}
	}
	ep.hitStats = func() (hits, lookups uint64) {
		for _, c := range cs {
			hits += c.hits
			lookups += c.lookups
		}
		return hits, lookups
	}
	ep.served = srv.OpsServed
	ep.check = func() error {
		var replies uint64
		var sets, fresh, removed int
		for _, c := range cs {
			replies += c.replies
			sets += c.sets
			fresh += c.freshIncr
			removed += c.removed
		}
		if served := srv.OpsServed(); served != replies {
			return fmt.Errorf("server served %d requests, clients got %d replies: %w", served, replies, errWrong)
		}
		n, err := sess.Count()
		if err != nil {
			return fmt.Errorf("count: %w", err)
		}
		return checkLiveKeys(n, prepop, sets, fresh, removed, 0)
	}
	ep.replay = func() (parseNS, encodeNS float64, err error) {
		var reqs []server.Request
		for _, c := range cs {
			reqs = append(reqs, c.sent...)
		}
		return replayCodec(reqs)
	}
	return ep, nil
}

// replayCodec encodes reqs with server.WriteRequest and parses them back
// with server.ReadRequest, both from memory, and returns the median over
// several passes of the mean time per request of each.
func replayCodec(reqs []server.Request) (parseNS, encodeNS float64, err error) {
	if len(reqs) == 0 {
		return 0, 0, nil
	}
	const passes = 7
	var enc, dec [passes]float64
	var buf bytes.Buffer
	var payload []byte
	for p := 0; p < passes; p++ {
		buf.Reset()
		bw := bufio.NewWriterSize(&buf, 64<<10)
		t0 := nanotime()
		for _, q := range reqs {
			if err := server.WriteRequest(bw, q); err != nil {
				return 0, 0, err
			}
		}
		if err := bw.Flush(); err != nil {
			return 0, 0, err
		}
		enc[p] = float64(nanotime()-t0) / float64(len(reqs))
		br := bufio.NewReaderSize(bytes.NewReader(buf.Bytes()), 64<<10)
		t0 = nanotime()
		for i := range reqs {
			got, err := server.ReadRequest(br, &payload)
			if err != nil {
				return 0, 0, fmt.Errorf("replay parse %d: %w", i, err)
			}
			if got.Verb != reqs[i].Verb || got.Key != reqs[i].Key || got.Arg != reqs[i].Arg {
				return 0, 0, fmt.Errorf("replay parse %d: got %+v, sent %+v: %w", i, got, reqs[i], errWrong)
			}
		}
		dec[p] = float64(nanotime()-t0) / float64(len(reqs))
	}
	return median(dec[:]), median(enc[:]), nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); it reorders xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
