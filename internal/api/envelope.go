package api

// The /v1 response envelope. Every JSON endpoint replies
//
//	{"data": <payload>, "error": null}        on success
//	{"data": null, "error": {"code", "message", "fields"}} on failure
//
// so clients branch on one shape. Error codes are machine-readable and
// stable; messages are for humans and may change.

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// Envelope is the uniform /v1 response shape. Both keys are always
// present (Data is JSON null on errors, Error null on success).
type Envelope struct {
	Data  any        `json:"data"`
	Error *ErrorBody `json:"error"`
}

// ErrorBody is the envelope's error half.
type ErrorBody struct {
	// Code is one of the Code* constants — the machine-readable branch
	// key.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Fields pinpoints request-validation failures per field.
	Fields []FieldError `json:"fields,omitempty"`
}

// FieldError names one invalid request field — the uniform 400 shape
// shared by every /v1 handler.
type FieldError struct {
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

// Stable machine-readable error codes.
const (
	CodeBadRequest       = "bad_request"        // 400: malformed body or parameters
	CodeInvalidArgument  = "invalid_argument"   // 422: well-formed but semantically unroutable
	CodeNotFound         = "not_found"          // 404
	CodeMethodNotAllowed = "method_not_allowed" // 405
	CodeConflict         = "conflict"           // 409
	CodeOverloaded       = "overloaded"         // 429: admission queue shed the request
	CodeCanceled         = "canceled"           // 499: client went away mid-admission
	CodeUnavailable      = "unavailable"        // 503: subsystem disabled or shutting down
	CodeInternal         = "internal"           // 500
)

// StatusClientClosedRequest is nginx's 499 — the client's context ended
// while the operation was queued, so no result was delivered.
const StatusClientClosedRequest = 499

// codeForStatus maps an HTTP status onto its default error code.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusConflict:
		return CodeConflict
	case http.StatusUnprocessableEntity:
		return CodeInvalidArgument
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case StatusClientClosedRequest:
		return CodeCanceled
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	default:
		return CodeInternal
	}
}

// WriteData writes a success envelope — exported for the cluster tier
// (internal/cluster), whose membership/drain endpoints live in front of
// this mux but must answer in the same shape.
func WriteData(w http.ResponseWriter, status int, v any) { writeData(w, status, v) }

// WriteError writes an error envelope with an explicit code; the
// exported counterpart of writeError for the cluster tier.
func WriteError(w http.ResponseWriter, status int, code, message string, fields ...FieldError) {
	writeError(w, status, code, message, fields...)
}

// writeData writes a success envelope. The body is encoded into a
// pooled buffer first and sent by writeBody, so the reply carries a
// Content-Length and a value that fails to marshal still answers a
// clean 500 envelope instead of a truncated body.
func writeData(w http.ResponseWriter, status int, v any) {
	writeEnvelope(w, status, Envelope{Data: v})
}

// writeError writes an error envelope with an explicit code.
func writeError(w http.ResponseWriter, status int, code, message string, fields ...FieldError) {
	writeEnvelope(w, status, Envelope{Error: &ErrorBody{Code: code, Message: message, Fields: fields}})
}

// writeEnvelope encodes env with encoding/json and sends it through
// writeBody.
func writeEnvelope(w http.ResponseWriter, status int, env Envelope) {
	buf := getBody()
	defer putBody(buf)
	if err := json.NewEncoder(buf).Encode(env); err != nil {
		// Encode writes nothing on failure, so buf is still empty.
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(Envelope{Error: &ErrorBody{Code: CodeInternal, Message: "api: encoding reply: " + err.Error()}})
	}
	writeBody(w, status, buf.b)
}

// writeBody is the one reply sink: it sends a complete JSON body with
// its Content-Length in a single Write, so net/http neither chunks it
// nor splits it into small writes.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b) // a failed write means the client is gone
}

// maxPooledBody caps the buffers returned to bodyPool: a larger one (a
// big epoch report or group list) goes to the GC, so one rare reply
// does not pin its memory for the life of the process.
const maxPooledBody = 64 << 10

// bodyBuf is a reply body under construction: an io.Writer for
// json.Encoder and an append target for appendPlanEnvelope.
type bodyBuf struct{ b []byte }

func (w *bodyBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

func getBody() *bodyBuf { return bodyPool.Get().(*bodyBuf) }

func putBody(buf *bodyBuf) {
	if cap(buf.b) > maxPooledBody {
		return
	}
	buf.b = buf.b[:0]
	bodyPool.Put(buf)
}

// httpError writes an error envelope deriving the code from the status
// — the migration shim for handlers that only have an error value.
func httpError(w http.ResponseWriter, status int, err error) {
	writeError(w, status, codeForStatus(status), err.Error())
}
