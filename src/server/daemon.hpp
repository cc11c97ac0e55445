/// \file daemon.hpp
/// \brief The command-line scaffolding `stpes-serve` and `stpes-route`
///        share: numeric flag parsers, the transport choice, failpoint
///        arming, and the run that serves a `session_host` on it.
///
/// Each binary keeps only its own flags, its usage text, and the
/// construction of its host.  Parse errors surface as `usage_error`, which
/// the binary turns into its usage message and exit code 2.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "server/session_host.hpp"

namespace stpes::server {

/// A malformed command line; `what()` is the reason shown above the usage.
struct usage_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The value of `--<name>=VALUE` in `arg`, or empty when `arg` is not
/// that flag (an empty value counts as absent).
std::string flag_value(const std::string& arg, const std::string& name);

/// Guarded numeric parsers: a malformed value throws `usage_error` naming
/// the flag, never an uncaught std::invalid_argument.
std::uint64_t parse_u64(const std::string& flag, const std::string& value);
unsigned parse_unsigned(const std::string& flag, const std::string& value,
                        unsigned max_value = ~0u);
double parse_seconds(const std::string& flag, const std::string& value);

/// `--socket=PATH | --listen=HOST:PORT | --pipe`: exactly one of them.
struct daemon_transport {
  std::string socket_path;
  std::string listen_spec;
  bool pipe = false;

  /// Takes `arg` when it is one of the three flags.
  bool consume(const std::string& arg);
  /// Throws `usage_error` unless exactly one transport was given.
  void check() const;
};

/// Arms the failpoints named in `STPES_FAILPOINTS` (chaos builds only),
/// logging the count as `<name>: armed N failpoint(s) ...`.
void arm_failpoints_from_env(const std::string& name);

/// Serves `host` on `transport` until it drains.  `--pipe` runs one
/// session over stdin/stdout; a listener runs with SIGTERM/SIGINT wired to
/// a graceful stop and SIGPIPE ignored.  Logs `<name>: pipe mode, <detail>`
/// or `<name>: listening on <address>, <detail>` to stderr.  Throws on a
/// bad listen spec or a bind failure.
void serve_daemon(session_host& host, const daemon_transport& transport,
                  const std::string& name, const std::string& detail);

}  // namespace stpes::server
