package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"corgipile/internal/db"
	"corgipile/internal/obs"
	"corgipile/internal/sqlparse"
)

// handleSession owns one client connection: it reads newline-delimited
// JSON requests, answers each with exactly one response line (in request
// order — the protocol has no pipelined or unsolicited replies), and on
// disconnect cancels every non-detached job the session still owns.
func (s *Server) handleSession(si *sessionInfo, conn net.Conn) {
	defer s.wg.Done()
	id := si.id
	// sessCtx parents the session's non-detached jobs, so tearing the
	// connection down cancels them even mid-epoch.
	sessCtx, cancel := context.WithCancel(s.ctx)
	defer func() {
		cancel()
		conn.Close()
		s.connsMu.Lock()
		delete(s.conns, conn)
		s.connsMu.Unlock()
		s.mu.Lock()
		delete(s.sessions, id)
		s.mu.Unlock()
		// Complete the queued → canceled transition for jobs a worker has
		// not picked up yet; running ones stop via the context.
		for _, j := range s.snapshotJobs() {
			if j.session == id && !j.detach && j.active() {
				j.requestCancel()
			}
		}
	}()

	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), MaxLineBytes)
	for sc.Scan() {
		// The scanner's buffer is decoded in place: decodeRequest copies
		// out every string it keeps.
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := decodeRequest(line, &req); err != nil {
			if enc.Encode(errResponse(ErrBadRequest, "request is not valid JSON: %v", err)) != nil {
				return
			}
			continue
		}
		// Every request gets a trace ID: the client's when supplied, a
		// minted "<session>-r<n>" otherwise. Minted IDs are visible only
		// through the introspection tables — the response echoes a trace
		// only when the client chose one, so trace-unaware transcripts
		// replay byte-for-byte.
		reqN := si.requests.Add(1)
		trace, traceGiven := req.Trace, req.Trace != ""
		if !traceGiven {
			trace = fmt.Sprintf("%s-r%d", id, reqN)
		}
		resp, quit := s.dispatch(id, sessCtx, &req, trace, traceGiven)
		if traceGiven {
			resp.Trace = trace
		}
		if enc.Encode(resp) != nil {
			return
		}
		if quit {
			return
		}
	}
	// Scanner stops on EOF, connection error, or an over-long line; all
	// three end the session the same way.
}

// dispatch routes one request. The second return value asks the caller to
// close the connection after writing the response.
func (s *Server) dispatch(sessID string, sessCtx context.Context, req *Request, trace string, traceGiven bool) (*Response, bool) {
	switch req.Op {
	case "hello":
		return &Response{
			OK:       true,
			Type:     "hello",
			Server:   ServerName,
			Protocol: ProtocolVersion,
			Session:  sessID,
		}, false
	case "sql", "train", "predict":
		// Statement-bearing ops get a wall-clock "statement" span — the
		// root of the request's timeline in corgi_spans.
		esp := s.events.StartSpan(trace, obs.EvSpanStatement)
		var resp *Response
		switch req.Op {
		case "sql":
			resp = s.execSQL(sessID, sessCtx, req, trace, traceGiven)
		case "train":
			resp = s.execTrainOp(sessID, sessCtx, req, trace, traceGiven)
		default:
			resp = s.execPredictOp(req, trace)
		}
		esp.End()
		return resp, false
	case "cancel":
		return s.execCancel(sessCtx, req), false
	case "status":
		return s.execStatus(sessCtx, req), false
	case "promote":
		return s.execPromote(trace), false
	case "quit":
		return &Response{OK: true, Type: "bye"}, true
	default:
		return errResponse(ErrUnknownOp, "unknown op %q", req.Op), false
	}
}

// execSQL parses a statement and routes it by kind: TRAIN becomes a
// background job, PREDICT reads the table's snapshot, and everything else
// (DDL, SHOW, EXPLAIN, SAVE/LOAD/DROP) executes inline under the catalog
// write lock.
func (s *Server) execSQL(sessID string, sessCtx context.Context, req *Request, trace string, traceGiven bool) *Response {
	st, err := sqlparse.Parse(req.SQL)
	if err != nil {
		return errResponse(ErrParse, "%v", err)
	}
	switch st := st.(type) {
	case *sqlparse.Train:
		return s.submitAndReply(sessID, sessCtx, st, req, trace, traceGiven)
	case *sqlparse.Predict:
		return s.execPredictTraced(st, trace)
	case *sqlparse.Select:
		return s.execSelect(st, trace)
	case *sqlparse.Promote:
		// PROMOTE must stop the replication stream, not just clear the
		// session's read-only latch, so it never takes the inline path.
		return s.execPromote(trace)
	default:
		return s.execInline(st, trace)
	}
}

// execTrainOp is op "train": like op "sql" but the statement must be TRAIN.
func (s *Server) execTrainOp(sessID string, sessCtx context.Context, req *Request, trace string, traceGiven bool) *Response {
	st, err := sqlparse.Parse(req.SQL)
	if err != nil {
		return errResponse(ErrParse, "%v", err)
	}
	tr, ok := st.(*sqlparse.Train)
	if !ok {
		return errResponse(ErrBadRequest, "op train requires a TRAIN statement, got %s", stmtVerb(st))
	}
	return s.submitAndReply(sessID, sessCtx, tr, req, trace, traceGiven)
}

// execPredictOp is op "predict": like op "sql" but the statement must be
// PREDICT.
func (s *Server) execPredictOp(req *Request, trace string) *Response {
	st, err := sqlparse.Parse(req.SQL)
	if err != nil {
		return errResponse(ErrParse, "%v", err)
	}
	pr, ok := st.(*sqlparse.Predict)
	if !ok {
		return errResponse(ErrBadRequest, "op predict requires a PREDICT statement, got %s", stmtVerb(st))
	}
	return s.execPredictTraced(pr, trace)
}

// execPredictTraced wraps execPredict with statement events and the
// serve.predict latency histogram, which corgi_metrics reads as
// serve.predict_p50/_p95/_p99 and /metrics as a quantile summary.
func (s *Server) execPredictTraced(st *sqlparse.Predict, trace string) *Response {
	kind := "predict " + strings.ToLower(st.Table)
	began := s.events.StatementStart(trace, kind)
	start := time.Now()
	resp := s.execPredict(st)
	s.reg.Observe(obs.ServePredict, time.Since(start))
	s.events.StatementFinish(trace, kind, began, errCode(resp))
	return resp
}

// execPredict resolves the statement under the catalog read lock and
// scores outside it, counting the snapshot work into the server's registry.
func (s *Server) execPredict(st *sqlparse.Predict) *Response {
	s.catalog.RLock()
	pp, err := s.dbs.PreparePredict(st)
	s.catalog.RUnlock()
	if err != nil {
		return errResponse(ErrNotFound, "%v", err)
	}
	res, err := pp.Run(s.reg)
	if err != nil {
		return errResponse(ErrExec, "%v", err)
	}
	return resultResponse(res)
}

// resultResponse carries a statement's tabular result onto the wire.
func resultResponse(res *db.Result) *Response {
	return &Response{OK: true, Type: "result", Columns: res.Columns, Rows: res.Rows, Message: res.Message}
}

// execSelect answers a general SELECT under the catalog read lock —
// system tables read live state, base tables decode their snapshot; no
// mutation happens on this path.
func (s *Server) execSelect(st *sqlparse.Select, trace string) *Response {
	s.catalog.RLock()
	res, err := s.dbs.ExecStatementT(st, trace)
	s.catalog.RUnlock()
	if err != nil {
		return errResponse(ErrExec, "%v", err)
	}
	return resultResponse(res)
}

// errCode is a response's wire error code, "" unless it failed.
func errCode(resp *Response) string {
	if resp != nil && !resp.OK && resp.Error != nil {
		return resp.Error.Code
	}
	return ""
}

// submitAndReply enqueues a TRAIN job and acknowledges it. The ack always
// reports state "queued" — never a racy peek at whether a worker already
// started it — so transcripts are deterministic. With wait=true the reply
// is deferred until the job reaches a terminal state.
func (s *Server) submitAndReply(sessID string, sessCtx context.Context, st *sqlparse.Train, req *Request, trace string, traceGiven bool) *Response {
	kind := "train " + strings.ToLower(st.Table)
	start := s.events.StatementStart(trace, kind)
	resp := s.submitAndReplyInner(sessID, sessCtx, st, req, trace, traceGiven)
	s.events.StatementFinish(trace, kind, start, errCode(resp))
	return resp
}

func (s *Server) submitAndReplyInner(sessID string, sessCtx context.Context, st *sqlparse.Train, req *Request, trace string, traceGiven bool) *Response {
	j, errResp := s.submitTrain(sessID, st, req.SQL, req.Detach, sessCtx, trace, traceGiven)
	if errResp != nil {
		return errResp
	}
	if req.Wait {
		if r := s.waitJob(j, sessCtx); r != nil {
			return r
		}
		return &Response{OK: true, Type: "job", Job: ptr(j.status())}
	}
	ack := &JobStatus{
		ID:      j.id,
		Session: sessID,
		Model:   strings.ToLower(st.ModelName),
		State:   JobQueued,
	}
	if traceGiven {
		ack.Trace = trace
	}
	return &Response{OK: true, Type: "job", Job: ack}
}

// execCancel cancels a job by id. Any session may cancel any job (an
// operator connection can reap another client's runaway TRAIN); with
// wait=true the reply waits for the job to actually reach a terminal
// state rather than reporting the in-flight snapshot.
func (s *Server) execCancel(sessCtx context.Context, req *Request) *Response {
	s.mu.Lock()
	j, ok := s.jobs[req.Job]
	s.mu.Unlock()
	if !ok {
		return errResponse(ErrNotFound, "unknown job %q", req.Job)
	}
	j.requestCancel()
	if req.Wait {
		if r := s.waitJob(j, sessCtx); r != nil {
			return r
		}
	}
	return &Response{OK: true, Type: "job", Job: ptr(j.status())}
}

// execStatus reports one job (req.Job set; wait=true blocks until it is
// terminal) or the whole job table in submission order. With stats=true
// each status carries the job's resource accounting.
func (s *Server) execStatus(sessCtx context.Context, req *Request) *Response {
	if req.Job != "" {
		s.mu.Lock()
		j, ok := s.jobs[req.Job]
		s.mu.Unlock()
		if !ok {
			return errResponse(ErrNotFound, "unknown job %q", req.Job)
		}
		if req.Wait {
			if r := s.waitJob(j, sessCtx); r != nil {
				return r
			}
		}
		return &Response{OK: true, Type: "job", Job: ptr(j.statusWith(req.Stats))}
	}
	jobs := s.snapshotJobs()
	resp := &Response{OK: true, Type: "status", Jobs: make([]JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		resp.Jobs = append(resp.Jobs, j.statusWith(req.Stats))
	}
	return resp
}

// execInline runs a non-TRAIN, non-PREDICT statement under the catalog
// write lock. The db layer emits the statement start/finish events, stamped
// with the request's trace.
func (s *Server) execInline(st sqlparse.Statement, trace string) *Response {
	s.catalog.Lock()
	res, err := s.dbs.ExecStatementT(st, trace)
	s.catalog.Unlock()
	if err != nil {
		if errors.Is(err, db.ErrReadOnly) {
			return errResponse(ErrReadOnly, "%v", err)
		}
		return errResponse(ErrExec, "%v", err)
	}
	return resultResponse(res)
}

// execPromote turns a replica server into a writable primary: the
// replication stream stops at a durable record boundary, the read-only
// latch clears, and — when ReplicaListen is configured — the promoted
// server starts publishing its own replication stream. Idempotent: a
// second PROMOTE reports the same applied LSN.
func (s *Server) execPromote(trace string) *Response {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.replica == nil {
		return errResponse(ErrNotReplica, "this server is not a replica; nothing to promote")
	}
	applied, err := s.replica.Promote()
	if err != nil {
		return errResponse(ErrExec, "promote: %v", err)
	}
	s.catalog.Lock()
	s.dbs.SetReadOnly(false)
	s.catalog.Unlock()
	// The promoted server no longer replicates: retire the replica-side
	// lag gauges so /metrics stops exporting stale readings.
	s.reg.DeleteGauge(obs.ReplAppliedLSN)
	s.reg.DeleteGauge(obs.ReplLagLSN)
	if s.cfg.ReplicaListen != "" && s.primary == nil {
		p, err := s.startPrimary()
		if err != nil {
			return errResponse(ErrExec, "promote: start replication listener: %v", err)
		}
		s.primary = p
		s.primPtr.Store(p)
	}
	s.events.Emit(obs.EvPromote, trace, fmt.Sprintf("applied_lsn=%d", applied))
	return &Response{
		OK:      true,
		Type:    "result",
		Message: fmt.Sprintf("promoted: writable at lsn %d", applied),
	}
}

// waitJob blocks until the job is terminal. It returns a non-nil error
// response only when the wait itself was interrupted (session or server
// teardown).
func (s *Server) waitJob(j *job, sessCtx context.Context) *Response {
	select {
	case <-j.done:
		return nil
	case <-sessCtx.Done():
		return errResponse(ErrShutdown, "wait interrupted: session closing")
	}
}

// stmtVerb names a statement for error messages: db.StatementKind's verb,
// upper-cased ("create_table t" → "CREATE TABLE").
func stmtVerb(st sqlparse.Statement) string {
	verb, _, _ := strings.Cut(db.StatementKind(st), " ")
	return strings.ToUpper(strings.ReplaceAll(verb, "_", " "))
}

// ptr lifts a JobStatus into the pointer the wire struct wants.
func ptr(st JobStatus) *JobStatus { return &st }
