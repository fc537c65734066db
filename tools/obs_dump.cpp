// obs_dump — fetch a live SnapshotServer's metricsz page.
//
//   $ ./build/tools/obs_dump --port=9123
//
// Connects to 127.0.0.1:<port>, sends one kMetricszRequest control
// record, then reads the data stream until the kMetricsz frame arrives
// (skipping the regular FULL/DELTA frames the server streams to every
// subscriber meanwhile) and prints the page to stdout. Exit 0 on
// success, 1 on connect/timeout/protocol failure — CI's service-smoke
// uses it as the "sys OK" probe by grepping the dumped page.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "svc/wire.hpp"

namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  std::uint64_t timeout_ms = 5000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--port=", 0) == 0) {
      port = std::stoi(arg.substr(7));
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      timeout_ms = std::stoull(arg.substr(13));
    } else {
      std::cerr << "usage: obs_dump --port=N [--timeout-ms=N]\n";
      return 1;
    }
  }
  if (port <= 0 || port > 65535) {
    std::cerr << "obs_dump: --port required\n";
    return 1;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    std::cerr << "obs_dump: socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::cerr << "obs_dump: connect: " << std::strerror(errno) << "\n";
    ::close(fd);
    return 1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string request;
  approx::svc::encode_metricsz_request_record(request);
  for (std::size_t off = 0; off < request.size();) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      std::cerr << "obs_dump: send failed\n";
      ::close(fd);
      return 1;
    }
    off += static_cast<std::size_t>(n);
  }

  // Read the stream frame by frame until the kMetricsz page shows up.
  std::string buf;
  char chunk[16 * 1024];
  const std::uint64_t deadline = now_ms() + timeout_ms;
  while (now_ms() < deadline) {
    // Peel complete frames already buffered.
    while (buf.size() >= approx::svc::kFramePrefixBytes) {
      const std::uint32_t len = approx::svc::read_u32le(buf.data());
      if (buf.size() < approx::svc::kFramePrefixBytes + len) break;
      const std::string_view payload(
          buf.data() + approx::svc::kFramePrefixBytes, len);
      if (payload.size() >= 4 &&
          static_cast<unsigned char>(payload[3]) ==
              static_cast<unsigned char>(approx::svc::FrameKind::kMetricsz)) {
        std::string text;
        if (!approx::svc::decode_metricsz(payload, text)) {
          std::cerr << "obs_dump: malformed metricsz frame\n";
          ::close(fd);
          return 1;
        }
        std::cout << text;
        std::cout << "metricsz OK bytes=" << text.size() << "\n";
        ::close(fd);
        return 0;
      }
      buf.erase(0, approx::svc::kFramePrefixBytes + len);
    }
    pollfd pfd{fd, POLLIN, 0};
    const std::uint64_t now = now_ms();
    const int wait =
        deadline > now ? static_cast<int>(deadline - now) : 0;
    const int ready = ::poll(&pfd, 1, wait);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      std::cerr << "obs_dump: server closed the connection\n";
      ::close(fd);
      return 1;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      std::cerr << "obs_dump: recv: " << std::strerror(errno) << "\n";
      ::close(fd);
      return 1;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  std::cerr << "obs_dump: timed out waiting for the metricsz frame\n";
  ::close(fd);
  return 1;
}
