package live

// sysSendmmsg is sendmmsg(2)'s number; package syscall has no
// SYS_SENDMMSG on 386.
const sysSendmmsg = 345
