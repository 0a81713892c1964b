// Syscall interposition points for the TCP transport, so the
// failure-injection tests (tests/wire/failure_injection_test.cpp) can
// produce EINTR mid-recv, EINTR mid-send, partial writes, and hard
// poll() failures deterministically — no timer signals, no flaky timing.
//
// Production code never sets these; when unset (the default) the
// transport calls the real ::poll/::recv/::send through one relaxed
// atomic load.  Hooks are process-global: set them only from
// single-session tests and reset() in teardown.
#pragma once

#include <poll.h>
#include <sys/types.h>

#include <cstddef>

namespace ds::wire::testhooks {

using PollFn = int (*)(pollfd* fds, nfds_t nfds, int timeout_ms);
using RecvFn = ssize_t (*)(int fd, void* buf, std::size_t len, int flags);
using SendFn = ssize_t (*)(int fd, const void* buf, std::size_t len,
                           int flags);

/// Replace the transport's poll/recv/send; nullptr restores the real
/// syscall.  The hook sees exactly the arguments the transport would
/// have passed and must honor the same errno contract.
void set_poll(PollFn fn) noexcept;
void set_recv(RecvFn fn) noexcept;
void set_send(SendFn fn) noexcept;

/// Restore all three to the real syscalls.
void reset() noexcept;

}  // namespace ds::wire::testhooks
