package system

import (
	"strings"
	"testing"

	"repro/internal/msg"
	"repro/internal/proto"
)

func checkerTopo() proto.Topology {
	return proto.Topology{Tiles: 4, Mems: 2, LineSize: 64}
}

func view(node int, perm proto.Permission, owner, backup bool, version uint64) agentView {
	v := proto.LineView{Addr: 0x40, Perm: perm, Owner: owner, Backup: backup}
	v.Payload.Version = version
	return viewOf(int32(checkerTopo().L1(node)), v)
}

func TestCheckLineSWMRViolation(t *testing.T) {
	vs := []agentView{
		view(0, proto.PermWrite, true, false, 1),
		view(1, proto.PermWrite, false, false, 1),
	}
	err := checkLine(checkerTopo(), 0x40, vs, true)
	if err == nil || !strings.Contains(err.Error(), "SWMR") {
		t.Fatalf("err = %v, want SWMR violation", err)
	}
}

func TestCheckLineWriterWithReaders(t *testing.T) {
	vs := []agentView{
		view(0, proto.PermWrite, true, false, 1),
		view(1, proto.PermRead, false, false, 1),
	}
	err := checkLine(checkerTopo(), 0x40, vs, true)
	if err == nil || !strings.Contains(err.Error(), "coexists") {
		t.Fatalf("err = %v, want writer/reader conflict", err)
	}
}

func TestCheckLineTwoOwners(t *testing.T) {
	vs := []agentView{
		view(0, proto.PermRead, true, false, 1),
		view(1, proto.PermRead, true, false, 1),
	}
	err := checkLine(checkerTopo(), 0x40, vs, true)
	if err == nil || !strings.Contains(err.Error(), "owners") {
		t.Fatalf("err = %v, want multiple owners", err)
	}
}

func TestCheckLineNoOwnerNoBackup(t *testing.T) {
	vs := []agentView{view(0, proto.PermRead, false, false, 1)}
	err := checkLine(checkerTopo(), 0x40, vs, true)
	if err == nil || !strings.Contains(err.Error(), "no owner") {
		t.Fatalf("err = %v, want missing owner", err)
	}
}

func TestCheckLineTwoChipBackups(t *testing.T) {
	vs := []agentView{
		view(0, proto.PermNone, false, true, 1),
		view(1, proto.PermNone, false, true, 1),
	}
	err := checkLine(checkerTopo(), 0x40, vs, false)
	if err == nil || !strings.Contains(err.Error(), "backups") {
		t.Fatalf("err = %v, want backup violation", err)
	}
}

func TestCheckLineChipPlusMemBackupAllowedMidRun(t *testing.T) {
	// §3.1.1: one backup off-chip plus one in the chip is legal while the
	// transfer chain is in flight.
	topo := checkerTopo()
	vs := []agentView{
		viewOf(int32(topo.L2(0)), proto.LineView{Addr: 0x40, Backup: true}),
		viewOf(int32(topo.Mem(0)), proto.LineView{Addr: 0x40, Backup: true}),
	}
	if err := checkLine(topo, 0x40, vs, false); err != nil {
		t.Fatalf("legal backup pair rejected: %v", err)
	}
}

func TestCheckLineBackupAtQuiescenceRejected(t *testing.T) {
	vs := []agentView{
		view(0, proto.PermNone, false, true, 1),
		view(1, proto.PermWrite, true, false, 1),
	}
	err := checkLine(checkerTopo(), 0x40, vs, true)
	if err == nil || !strings.Contains(err.Error(), "quiescence") {
		t.Fatalf("err = %v, want quiescence backup rejection", err)
	}
}

func TestCheckLineStaleCopyRejected(t *testing.T) {
	topo := checkerTopo()
	owner := viewOf(int32(topo.L1(0)), proto.LineView{Addr: 0x40, Perm: proto.PermRead, Owner: true, Payload: msg.Payload{Version: 5}})
	stale := viewOf(int32(topo.L1(1)), proto.LineView{Addr: 0x40, Perm: proto.PermRead, Payload: msg.Payload{Version: 3}})
	err := checkLine(topo, 0x40, []agentView{owner, stale}, true)
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("err = %v, want stale copy rejection", err)
	}
}

func TestCheckLineHealthyQuiescentState(t *testing.T) {
	topo := checkerTopo()
	owner := viewOf(int32(topo.L1(0)), proto.LineView{Addr: 0x40, Perm: proto.PermRead, Owner: true, Payload: msg.Payload{Version: 5}})
	sharer := viewOf(int32(topo.L1(1)), proto.LineView{Addr: 0x40, Perm: proto.PermRead, Payload: msg.Payload{Version: 5}})
	if err := checkLine(topo, 0x40, []agentView{owner, sharer}, true); err != nil {
		t.Fatalf("healthy state rejected: %v", err)
	}
}

func TestCheckLineBackupOnlyMidRunAccepted(t *testing.T) {
	// Data in flight: no owner anywhere, one backup — exactly the
	// guarantee FtDirCMP provides.
	vs := []agentView{view(0, proto.PermNone, false, true, 4)}
	if err := checkLine(checkerTopo(), 0x40, vs, false); err != nil {
		t.Fatalf("in-flight backup state rejected: %v", err)
	}
}
