// Package wire defines the request format that travels from the trusted
// server to service providers (paper §3):
//
//	(msgid, UserPseudonym, Area, TimeInterval, Data)
//
// The trusted server knows the exact position and instant behind each
// request; a service provider sees only this generalized form. The
// package sits at the bottom of the dependency graph so that the TS, the
// SP/attacker, and the linkability tooling can all share the type. It
// also holds the binary framing of the device→TS ingest channel
// (binary.go, batch.go).
package wire

import (
	"fmt"

	"histanon/internal/geo"
)

// MsgID identifies a request on the TS↔SP channel; the TS uses it to
// route the answer back to the user's device without revealing the
// network address.
type MsgID int64

// Pseudonym hides the user identity toward a service provider while
// still letting the SP authenticate, correlate, and charge the user.
type Pseudonym string

// Request is one service request as seen by a service provider.
type Request struct {
	// ID is the message identifier (msgid).
	ID MsgID
	// Pseudonym stands in for the user identity.
	Pseudonym Pseudonym
	// Context is the possibly generalized ⟨Area, TimeInterval⟩ in which
	// the request was issued.
	Context geo.STBox
	// Service names the destination service.
	Service string
	// Data carries the service-specific attribute-value pairs.
	Data map[string]string
}

func (r *Request) String() string {
	return fmt.Sprintf("req %d pseudo=%s svc=%s ctx=%s", r.ID, r.Pseudonym, r.Service, r.Context)
}

// Response is a service provider's answer to a request, routed back to
// the user's device by the trusted server via the msgid (the SP never
// learns a network address).
type Response struct {
	// ID echoes the request's msgid.
	ID MsgID
	// Service names the answering service.
	Service string
	// Payload carries the service output.
	Payload map[string]string
}

func (r *Response) String() string {
	return fmt.Sprintf("resp %d svc=%s", r.ID, r.Service)
}
