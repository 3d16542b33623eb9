package dist

import (
	"time"

	"koopmancrc/internal/obs"
)

// AssembleJobTraceForTest exposes the wire-span stitcher so package
// dist_test can feed it hostile worker input directly.
func AssembleJobTraceForTest(rootSpan string, spans []WireSpan) *obs.TraceData {
	j := &lease{
		traceID:   obs.NewTraceID(),
		rootSpan:  rootSpan,
		grantedAt: time.Now().Add(-time.Millisecond),
	}
	return assembleJobTrace(j, "test-worker", "", spans, time.Now())
}

// SetFrameLimitForTest lowers the wire frame cap so a test can send an
// oversized frame cheaply; the returned func restores maxFrameBytes. Call
// it before starting any coordinator or worker, and restore only after
// they have stopped.
func SetFrameLimitForTest(n int) (restore func()) {
	frameLimit = n
	return func() { frameLimit = maxFrameBytes }
}
