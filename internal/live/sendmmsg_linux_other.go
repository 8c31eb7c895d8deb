//go:build linux && !amd64 && !386

package live

import "syscall"

const sysSendmmsg = syscall.SYS_SENDMMSG
