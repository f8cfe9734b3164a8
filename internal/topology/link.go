package topology

import (
	"errors"
	"fmt"
)

// LinkID identifies a directed link within a Graph. Like NodeID, link IDs
// are dense insertion-order indexes.
type LinkID int

// InvalidLink is returned by lookups that found no link.
const InvalidLink LinkID = -1

// Errors reported by bandwidth bookkeeping and graph construction.
var (
	// ErrInsufficientBandwidth is returned by Reserve when the requested
	// bandwidth exceeds the link's residual capacity.
	ErrInsufficientBandwidth = errors.New("insufficient residual bandwidth")
	// ErrOverRelease is returned by Release when more bandwidth would be
	// released than is currently reserved; it indicates a bookkeeping bug
	// in the caller.
	ErrOverRelease = errors.New("release exceeds reserved bandwidth")
	// ErrDuplicateLink is returned by AddLink when a link between the same
	// ordered node pair already exists.
	ErrDuplicateLink = errors.New("duplicate link")
	// ErrUnknownNode is returned when a NodeID is out of range for the graph.
	ErrUnknownNode = errors.New("unknown node")
	// ErrNegativeBandwidth is returned when a negative capacity or demand
	// reaches the bookkeeping layer.
	ErrNegativeBandwidth = errors.New("negative bandwidth")
	// ErrLinkDown is returned by Reserve on a failed link. Fault injection
	// marks links down; recovery marks them up again.
	ErrLinkDown = errors.New("link down")
)

// Link is a directed, capacitated edge of the network graph. Physical
// cables are modeled as two Links, one per direction, each with its own
// capacity and reservation state; flows reserve bandwidth only along their
// direction of travel.
type Link struct {
	// ID is the link's dense index within its Graph.
	ID LinkID
	// From and To are the endpoints; traffic flows From -> To.
	From NodeID
	To   NodeID
	// Capacity is the total bandwidth of the link.
	Capacity Bandwidth

	// reserved is the bandwidth currently claimed by placed flows.
	// It is manipulated exclusively through Graph.Reserve / Graph.Release
	// so that all mutation funnels through invariant checks.
	reserved Bandwidth
	// down marks a failed link (fault injection). A down link reports zero
	// residual and rejects reservations; existing reservations persist
	// until the failure handler withdraws the affected flows.
	down bool
}

// Reserved returns the bandwidth currently reserved on the link.
func (l *Link) Reserved() Bandwidth { return l.reserved }

// Down reports whether the link is currently failed.
func (l *Link) Down() bool { return l.down }

// Residual returns the bandwidth still available on the link. A down link
// has no usable bandwidth, so planning and placement route around it
// without any routing-layer special casing.
func (l *Link) Residual() Bandwidth {
	if l.down {
		return 0
	}
	return l.Capacity - l.reserved
}

// Utilization returns reserved/capacity in [0,1]. A zero-capacity link
// reports utilization 0.
func (l *Link) Utilization() float64 {
	if l.Capacity == 0 {
		return 0
	}
	return float64(l.reserved) / float64(l.Capacity)
}

// String implements fmt.Stringer.
func (l *Link) String() string {
	return fmt.Sprintf("link#%d(%d->%d cap=%v used=%v)",
		int(l.ID), int(l.From), int(l.To), l.Capacity, l.reserved)
}
