package main

import (
	"os"
	"runtime"
	"strings"
	"syscall"

	empart "repro"
)

// host records the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	ScratchFS  string `json:"scratch_fs"`
	DirectIO   bool   `json:"direct_io_supported"`
	Uring      bool   `json:"uring_supported"`
	Disk       string `json:"disk"`
}

func probeHost(scratch string) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		ScratchFS:  fsType(scratch),
		DirectIO:   empart.DirectIOSupported(scratch),
		Uring:      empart.UringSupported(),
		Disk: "file-backed disks use the page cache (no O_DIRECT, no fsync); " +
			"disk times are the host's page cache, not a storage device's",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x794c7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "unknown"
}
