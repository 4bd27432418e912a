// Package rawsys is the event loop's system-call layer: every call the
// loops in internal/netpoll and lbproxy make, each one a raw syscall
// (syscall.RawSyscall, no entersyscall/exitsyscall).
//
// Package syscall's wrappers tell the Go scheduler they are entering a call
// that might block. On an otherwise idle P that notice wakes sysmon, a
// syscall wake puts sysmon back on 20 µs polling, and any call it outlasts
// has its P handed to another M. Every descriptor the loop touches is
// nonblocking and every call here returns in microseconds, so the handoff
// buys nothing and costs context switches and CPU on every wakeup. The loop
// still parks in the runtime netpoller, never in a blocking call.
//
// The functions are thin: one syscall each, errors as syscall.Errno values
// (nil on success). A signal can land inside a raw call — the runtime's
// async-preemption signal included, since the goroutine stays running — and
// EINTR comes back to the caller like any other errno; the callers retry it.
// Unlike package syscall's Read and Write, nothing here tells the race
// detector about the bytes the kernel moved: a buffer the kernel fills is
// only ever read by the goroutine that passed it in.
package rawsys

import (
	"net/netip"
	"syscall"
	"unsafe"
)

func errnoErr(e syscall.Errno) error {
	if e != 0 {
		return e
	}
	return nil
}

// bytesPtr is the address of b's first byte, or 0 for an empty b.
func bytesPtr(b []byte) uintptr {
	if len(b) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&b[0]))
}

// Read is read(2). 0 with a nil error is end of file.
func Read(fd int, p []byte) (int, error) {
	n, _, e := syscall.RawSyscall(syscall.SYS_READ, uintptr(fd), bytesPtr(p), uintptr(len(p)))
	return int(n), errnoErr(e)
}

// Write is write(2).
func Write(fd int, p []byte) (int, error) {
	n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, uintptr(fd), bytesPtr(p), uintptr(len(p)))
	return int(n), errnoErr(e)
}

// Splice is splice(2) with both offsets nil.
func Splice(rfd, wfd, n, flags int) (int, error) {
	m, _, e := syscall.RawSyscall6(syscall.SYS_SPLICE, uintptr(rfd), 0, uintptr(wfd), 0, uintptr(n), uintptr(flags))
	return int(m), errnoErr(e)
}

// EpollWait harvests ready events without waiting: epoll_pwait(2) with a
// zero timeout and no signal mask, which every architecture has.
func EpollWait(epfd int, events []syscall.EpollEvent) (int, error) {
	var p uintptr
	if len(events) > 0 {
		p = uintptr(unsafe.Pointer(&events[0]))
	}
	n, _, e := syscall.RawSyscall6(syscall.SYS_EPOLL_PWAIT, uintptr(epfd), p, uintptr(len(events)), 0, 0, 0)
	return int(n), errnoErr(e)
}

// EpollCtl is epoll_ctl(2).
func EpollCtl(epfd, op, fd int, ev *syscall.EpollEvent) error {
	_, _, e := syscall.RawSyscall6(syscall.SYS_EPOLL_CTL, uintptr(epfd), uintptr(op), uintptr(fd), uintptr(unsafe.Pointer(ev)), 0, 0)
	return errnoErr(e)
}

// Accept4 is accept4(2); peer is the connecting socket's address.
func Accept4(lfd, flags int) (fd int, peer netip.AddrPort, err error) {
	var sa syscall.RawSockaddrAny
	salen := uint32(unsafe.Sizeof(sa))
	r, _, e := syscall.RawSyscall6(syscall.SYS_ACCEPT4, uintptr(lfd),
		uintptr(unsafe.Pointer(&sa)), uintptr(unsafe.Pointer(&salen)), uintptr(flags), 0, 0)
	if e != 0 {
		return -1, peer, e
	}
	return int(r), addrPort(&sa), nil
}

// Getsockname is getsockname(2).
func Getsockname(fd int) (netip.AddrPort, error) {
	var sa syscall.RawSockaddrAny
	salen := uint32(unsafe.Sizeof(sa))
	_, _, e := syscall.RawSyscall(syscall.SYS_GETSOCKNAME, uintptr(fd),
		uintptr(unsafe.Pointer(&sa)), uintptr(unsafe.Pointer(&salen)))
	if e != 0 {
		return netip.AddrPort{}, e
	}
	return addrPort(&sa), nil
}

// addrPort decodes an AF_INET or AF_INET6 address (the IPv6 zone dropped);
// any other family is the zero AddrPort.
func addrPort(sa *syscall.RawSockaddrAny) netip.AddrPort {
	switch sa.Addr.Family {
	case syscall.AF_INET:
		a := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(a.Addr), ntohs(a.Port))
	case syscall.AF_INET6:
		a := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom16(a.Addr), ntohs(a.Port))
	}
	return netip.AddrPort{}
}

// ntohs and htons swap a port between its in-memory network order and host
// order, whatever the host's byte order.
func ntohs(port uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(&port))
	return uint16(b[0])<<8 | uint16(b[1])
}

func htons(port uint16) (n uint16) {
	b := (*[2]byte)(unsafe.Pointer(&n))
	b[0], b[1] = byte(port>>8), byte(port)
	return n
}

// Sockaddr is a socket address in the form connect(2) takes, built once.
type Sockaddr struct {
	raw syscall.RawSockaddrInet6 // an AF_INET address uses its first 16 bytes
	len uint32
}

// NewSockaddr is ap in kernel form; zone is an IPv6 scope's interface index
// (0 for none). An IPv4 or 4-in-6 address is AF_INET.
func NewSockaddr(ap netip.AddrPort, zone uint32) (sa Sockaddr) {
	if addr := ap.Addr().Unmap(); addr.Is4() {
		a := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&sa.raw))
		a.Family, a.Port, a.Addr = syscall.AF_INET, htons(ap.Port()), addr.As4()
		sa.len = syscall.SizeofSockaddrInet4
	} else {
		sa.raw = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: htons(ap.Port()), Addr: addr.As16(), Scope_id: zone}
		sa.len = syscall.SizeofSockaddrInet6
	}
	return sa
}

// Family is AF_INET or AF_INET6, for socket(2).
func (sa *Sockaddr) Family() int { return int(sa.raw.Family) }

// Socket is socket(2).
func Socket(family, typ, proto int) (int, error) {
	fd, _, e := syscall.RawSyscall(syscall.SYS_SOCKET, uintptr(family), uintptr(typ), uintptr(proto))
	if e != 0 {
		return -1, e
	}
	return int(fd), nil
}

// Connect is connect(2); on a nonblocking socket EINPROGRESS means started.
func Connect(fd int, sa *Sockaddr) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_CONNECT, uintptr(fd), uintptr(unsafe.Pointer(&sa.raw)), uintptr(sa.len))
	return errnoErr(e)
}

// SetsockoptInt is setsockopt(2) with an int value.
func SetsockoptInt(fd, level, opt, value int) error {
	v := int32(value)
	_, _, e := syscall.RawSyscall6(syscall.SYS_SETSOCKOPT, uintptr(fd), uintptr(level), uintptr(opt),
		uintptr(unsafe.Pointer(&v)), unsafe.Sizeof(v), 0)
	return errnoErr(e)
}

// GetsockoptInt is getsockopt(2) of an int value.
func GetsockoptInt(fd, level, opt int) (int, error) {
	var v int32
	if _, err := Getsockopt(fd, level, opt, unsafe.Slice((*byte)(unsafe.Pointer(&v)), unsafe.Sizeof(v))); err != nil {
		return 0, err
	}
	return int(v), nil
}

// Getsockopt is getsockopt(2) into buf; it returns the length the kernel
// wrote.
func Getsockopt(fd, level, opt int, buf []byte) (int, error) {
	n := uint32(len(buf))
	_, _, e := syscall.RawSyscall6(syscall.SYS_GETSOCKOPT, uintptr(fd), uintptr(level), uintptr(opt),
		bytesPtr(buf), uintptr(unsafe.Pointer(&n)), 0)
	return int(n), errnoErr(e)
}

// Shutdown is shutdown(2).
func Shutdown(fd, how int) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SHUTDOWN, uintptr(fd), uintptr(how), 0)
	return errnoErr(e)
}

// Close is close(2).
func Close(fd int) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_CLOSE, uintptr(fd), 0, 0)
	return errnoErr(e)
}

// Pipe2 is pipe2(2).
func Pipe2(p *[2]int, flags int) error {
	var fds [2]int32
	_, _, e := syscall.RawSyscall(syscall.SYS_PIPE2, uintptr(unsafe.Pointer(&fds)), uintptr(flags), 0)
	if e != 0 {
		return e
	}
	p[0], p[1] = int(fds[0]), int(fds[1])
	return nil
}

// Fcntl is fcntl(2) with an int argument: F_DUPFD_CLOEXEC, F_SETPIPE_SZ.
func Fcntl(fd, cmd, arg int) (int, error) {
	r, _, e := syscall.RawSyscall(syscall.SYS_FCNTL, uintptr(fd), uintptr(cmd), uintptr(arg))
	if e != 0 {
		return -1, e
	}
	return int(r), nil
}
