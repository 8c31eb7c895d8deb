package live

// sysSendmmsg is sendmmsg(2)'s number; package syscall has no
// SYS_SENDMMSG on amd64.
const sysSendmmsg = 307
