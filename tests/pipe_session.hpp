/// \file pipe_session.hpp
/// \brief A live session with any `session_host` over two POSIX pipes.
///
/// The host serves the session on its own thread — exactly the daemon's
/// `--pipe` transport — while the test drives a `line_client`.  Used by
/// the server, sweep-server, chaos and route-chaos suites.  Header-only so
/// every test binary stays self-contained (the chaos suites run under
/// `--gtest_repeat`).

#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <ostream>
#include <thread>

#include "server/client.hpp"
#include "server/fd_stream.hpp"
#include "server/session_host.hpp"

namespace stpes::test_support {

class pipe_session {
public:
  explicit pipe_session(server::session_host& host) {
    EXPECT_EQ(::pipe(to_host_), 0);
    EXPECT_EQ(::pipe(from_host_), 0);
    host_in_ = std::make_unique<server::fd_iostream>(to_host_[0]);
    host_out_ = std::make_unique<server::fd_iostream>(from_host_[1]);
    client_in_ = std::make_unique<server::fd_iostream>(from_host_[0]);
    client_out_ = std::make_unique<server::fd_iostream>(to_host_[1]);
    thread_ = std::thread([&host, this] {
      host.serve(*host_in_, *host_out_);
      // Close the write end so a client blocked in a read sees EOF even
      // when the session ended first (e.g. a drain racing a request).
      host_out_->flush();
      ::close(from_host_[1]);
      host_write_closed_ = true;
    });
    client_ = std::make_unique<server::line_client>(*client_in_,
                                                    *client_out_);
  }

  ~pipe_session() {
    finish();
    ::close(to_host_[0]);
    if (!client_read_closed_) {
      ::close(from_host_[0]);
    }
    if (!host_write_closed_) {
      ::close(from_host_[1]);
    }
  }

  pipe_session(const pipe_session&) = delete;
  pipe_session& operator=(const pipe_session&) = delete;

  [[nodiscard]] server::line_client& client() { return *client_; }

  /// Raw client-side write stream, for half-written requests that bypass
  /// `line_client`'s request/reply discipline.
  [[nodiscard]] std::ostream& raw_out() { return *client_out_; }

  /// Closes the client's write end (EOF for the host) and joins.
  void finish() {
    if (thread_.joinable()) {
      client_out_->flush();
      ::close(to_host_[1]);
      thread_.join();
    }
  }

  /// Abandons the connection abruptly: both client fds close with a
  /// request possibly half-written — the truncated-client fault.
  void abandon() {
    if (thread_.joinable()) {
      client_out_->flush();
      ::close(to_host_[1]);
      ::close(from_host_[0]);
      client_read_closed_ = true;
      thread_.join();
    }
  }

private:
  int to_host_[2] = {-1, -1};
  int from_host_[2] = {-1, -1};
  std::unique_ptr<server::fd_iostream> host_in_;
  std::unique_ptr<server::fd_iostream> host_out_;
  std::unique_ptr<server::fd_iostream> client_in_;
  std::unique_ptr<server::fd_iostream> client_out_;
  std::unique_ptr<server::line_client> client_;
  std::thread thread_;
  bool host_write_closed_ = false;  ///< written before join, read after
  bool client_read_closed_ = false;
};

}  // namespace stpes::test_support
