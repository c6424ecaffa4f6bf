// cep_host: the benchmark's system under test — one CepServer in its own
// process, so the load generator never shares an address space (or an
// allocator, or a scheduler queue) with it.
//
// Prints one line once both listeners are bound and the pool is running:
//   cep_host port=<p> admin=<a> io=<backend> workers=<n>
// and serves until its stdin closes, then stops the server and exits 0.
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <exception>

#include "server/cep_server.hpp"
#include "server/config.hpp"

using namespace spectre;

int main() {
    // 3 pool workers + the reactor leave one core of a 4-core box for the
    // single-threaded generator.
    constexpr int kWorkers = 3;
    try {
        server::CepServer srv(server::ServerConfigBuilder{}.pool_workers(kWorkers).build());
        srv.start();
        std::printf("cep_host port=%u admin=%u io=%s workers=%d\n", srv.port(),
                    srv.admin_port(), srv.io_backend_name(), kWorkers);
        std::fflush(stdout);
        char buf[64];
        for (;;) {
            const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
            if (n == 0 || (n < 0 && errno != EINTR)) break;
        }
        srv.stop();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cep_host: %s\n", e.what());
        return 1;
    }
    return 0;
}
