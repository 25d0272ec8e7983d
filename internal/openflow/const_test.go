package openflow

import "testing"

func TestPortNames(t *testing.T) {
	if PortName(PortController) != "CONTROLLER" || PortName(5) != "" {
		t.Fatal("bad port naming")
	}
	if PortMax != 0xff00 || PortController != 0xfffd || PortInPort != 0xfff8 {
		t.Fatal("reserved port constants drifted from the 1.0 spec")
	}
}

func TestMsgTypeNames(t *testing.T) {
	if TypeFlowMod.String() != "FLOW_MOD" || TypePacketOut.String() != "PACKET_OUT" {
		t.Fatal("message names drifted")
	}
	if TypeQueueGetConfigReply != NumTypes-1 || len(msgTypeNames) != NumTypes {
		t.Fatalf("%d names for %d message types", len(msgTypeNames), NumTypes)
	}
	if MsgType(NumTypes).String() != "UNKNOWN" {
		t.Fatal("a code past the last type must render UNKNOWN")
	}
}
