package server

import (
	"errors"
	"net/http"

	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/durable"
	"repro/internal/probdb"
	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/sigmacache"
	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
)

// errBadRequest marks request-shape failures originating in the server
// itself (malformed JSON, missing parameters, oversized batches).
var errBadRequest = errors.New("server: bad request")

// ErrorResponse is the JSON body of every failed request.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code repeats the HTTP status so clients parsing only the body can
	// still branch on it.
	Code int `json:"code"`
}

// StatusFor maps engine errors onto HTTP status codes via errors.Is, which
// is why every public error path below the server wraps a package sentinel:
// the mapping stays exhaustive without string matching.
func StatusFor(err error) int {
	var syn *query.SyntaxError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &syn):
		return http.StatusBadRequest
	case errors.Is(err, storage.ErrNotFound),
		errors.Is(err, core.ErrStreamNotFound),
		errors.Is(err, probdb.ErrNoRows),
		errors.Is(err, view.ErrNoTuples):
		return http.StatusNotFound
	case errors.Is(err, storage.ErrExists),
		errors.Is(err, core.ErrStreamExists),
		// Out-of-order ingest conflicts with already accepted points; 409
		// (not 400) tells the client to resume past the stream's last
		// timestamp rather than fix the payload.
		errors.Is(err, core.ErrOutOfOrder):
		return http.StatusConflict
	case errors.Is(err, errBadRequest),
		errors.Is(err, core.ErrBadArg),
		errors.Is(err, storage.ErrBadName),
		errors.Is(err, storage.ErrBadSchema),
		errors.Is(err, probdb.ErrBadArg),
		errors.Is(err, view.ErrBadArg),
		errors.Is(err, view.ErrBadOmega),
		errors.Is(err, query.ErrUnknownMetric),
		errors.Is(err, query.ErrBadMetricArg),
		errors.Is(err, query.ErrColumnMismatch),
		errors.Is(err, query.ErrUnsupported),
		errors.Is(err, density.ErrBadConfig),
		errors.Is(err, density.ErrShortWindow),
		errors.Is(err, sigmacache.ErrBadConfig),
		errors.Is(err, sigmacache.ErrBadRange),
		errors.Is(err, timeseries.ErrUnsorted),
		errors.Is(err, timeseries.ErrNonFinite),
		errors.Is(err, timeseries.ErrEmpty),
		errors.Is(err, timeseries.ErrBadCSV),
		errors.Is(err, timeseries.ErrBadWindow):
		return http.StatusBadRequest
	case errors.Is(err, wal.ErrTooLarge):
		// One commit-log record holds the whole request (a table upload,
		// an ingest batch): past the record bound it is too large to
		// commit, whatever the engine's state.
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, wal.ErrClosed),
		errors.Is(err, wal.ErrPoisoned):
		// The commit log is shut or refuses writes until the daemon
		// recovers it: the request may succeed after a restart.
		return http.StatusServiceUnavailable
	case errors.Is(err, durable.ErrBadRecord),
		errors.Is(err, segment.ErrCorrupt),
		errors.Is(err, storage.ErrInvariant),
		errors.Is(err, timeseries.ErrOutOfRange):
		// A corrupt commit-log record or segment file, a view breaking
		// its invariants, or an out-of-range series index is engine-side
		// damage, not a client mistake. The explicit case keeps the
		// sentinel mapping exhaustive (tspdblint checks it) while still
		// answering 500.
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	code := StatusFor(err)
	_ = writeJSON(w, code, ErrorResponse{Error: err.Error(), Code: code})
}
