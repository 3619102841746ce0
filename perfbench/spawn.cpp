// perfbench_spawn — run one program and report what wait4 saw.
//
//   perfbench_spawn <fd> <program> [args...]
//
// Writes "pid <n>\n" to descriptor <fd> as soon as the child exists, and
// "done <status> <maxrss_kib> <wall_ns>\n" once it has been reaped, then
// exits with the child's exit code (128 + signal when it was killed).
//
// Why a separate launcher: on Linux a process inherits the peak RSS of
// the address space it was forked from, so a child started straight from
// the Python runner never reports less than the runner's own footprint.
// Started from this small process instead, the child's ru_maxrss is its
// own.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

extern char** environ;

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_spawn <fd> <program> [args...]\n");
    return 2;
  }
  const int fd = std::atoi(argv[1]);
  FILE* report = fdopen(fd, "w");
  if (report == nullptr) {
    std::perror("perfbench_spawn: report descriptor");
    return 2;
  }
  const auto start = std::chrono::steady_clock::now();
  pid_t pid = 0;
  const int rc = posix_spawnp(&pid, argv[2], nullptr, nullptr, argv + 2,
                              environ);
  if (rc != 0) {
    errno = rc;
    std::perror("perfbench_spawn: posix_spawnp");
    return 127;
  }
  std::fprintf(report, "pid %d\n", static_cast<int>(pid));
  std::fflush(report);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_spawn: wait4");
      return 2;
    }
  }
  const auto wall = std::chrono::steady_clock::now() - start;
  const int code = WIFEXITED(status)   ? WEXITSTATUS(status)
                   : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                         : 1;
  std::fprintf(report, "done %d %ld %lld\n", code, usage.ru_maxrss,
               static_cast<long long>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(wall)
                       .count()));
  std::fclose(report);
  return code;
}
