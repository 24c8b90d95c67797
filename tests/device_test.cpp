// Tests for the simulated GPGPU substrate: stream ordering, async copies,
// events, kernel launches, stream-ordered allocation, and host/device
// overlap.
#include "device/device.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

namespace odrc::device {
namespace {

TEST(Device, MallocFree) {
  context ctx(2);
  void* p = ctx.malloc(1024);
  ASSERT_NE(p, nullptr);
  ctx.free(p);
  EXPECT_GE(ctx.bytes_allocated(), 1024u);
}

TEST(Device, RoundTripCopy) {
  context ctx(2);
  stream s(ctx);
  std::vector<int> host(256);
  std::iota(host.begin(), host.end(), 0);
  buffer<int> dev(host.size(), ctx);
  dev.upload(s, host);
  std::vector<int> back(host.size(), -1);
  dev.download(s, back);
  s.synchronize();
  EXPECT_EQ(back, host);
  EXPECT_EQ(ctx.bytes_h2d(), 256 * sizeof(int));
  EXPECT_EQ(ctx.bytes_d2h(), 256 * sizeof(int));
}

TEST(Device, KernelLaunchCoversIndexSpace) {
  context ctx(3);
  stream s(ctx);
  constexpr std::uint32_t n = 1000;
  buffer<std::uint32_t> dev(n, ctx);
  std::uint32_t* p = dev.device_ptr();
  s.launch((n + 63) / 64, 64, [p](thread_id t) {
    const std::uint32_t i = t.global();
    if (i < n) p[i] = i * 3;
  });
  std::vector<std::uint32_t> out(n);
  dev.download(s, out);
  s.synchronize();
  for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * 3);
  EXPECT_EQ(ctx.kernels_launched(), 1u);
  EXPECT_EQ(ctx.threads_executed(), ((n + 63) / 64) * 64u);
}

TEST(Device, ThreadIdFieldsConsistent) {
  context ctx(2);
  stream s(ctx);
  std::atomic<int> bad{0};
  s.launch(4, 32, [&](thread_id t) {
    if (t.block_dim != 32 || t.grid_dim != 4) bad.fetch_add(1);
    if (t.lane >= 32 || t.block >= 4) bad.fetch_add(1);
    if (t.global() != t.block * 32 + t.lane) bad.fetch_add(1);
  });
  s.synchronize();
  EXPECT_EQ(bad.load(), 0);
}

TEST(Device, StreamOperationsAreOrdered) {
  context ctx(4);
  stream s(ctx);
  buffer<int> dev(1, ctx);
  int* p = dev.device_ptr();
  // 100 dependent increments must observe strict FIFO order.
  s.launch(1, 1, [p](thread_id) { *p = 0; });
  for (int k = 0; k < 100; ++k) {
    s.launch(1, 1, [p](thread_id) { *p += 1; });
  }
  int result = 0;
  s.memcpy_d2h(&result, p, sizeof(int));
  s.synchronize();
  EXPECT_EQ(result, 100);
}

TEST(Device, HostCallbackRunsInOrder) {
  context ctx(2);
  stream s(ctx);
  std::vector<int> order;
  s.host_callback([&] { order.push_back(1); });
  s.host_callback([&] { order.push_back(2); });
  s.host_callback([&] { order.push_back(3); });
  s.synchronize();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Device, EventsSynchronizeAcrossStreams) {
  context ctx(4);
  stream producer(ctx);
  stream consumer(ctx);
  buffer<int> dev(1, ctx);
  int* p = dev.device_ptr();

  event ready;
  producer.launch(1, 1, [p](thread_id) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    *p = 77;
  });
  producer.record(ready);

  consumer.wait(ready);
  int seen = 0;
  consumer.memcpy_d2h(&seen, p, sizeof(int));
  consumer.synchronize();
  EXPECT_EQ(seen, 77);
  EXPECT_TRUE(ready.ready());
}

TEST(Device, HostWaitOnEvent) {
  context ctx(2);
  stream s(ctx);
  event done;
  std::atomic<bool> flag{false};
  s.host_callback([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    flag = true;
  });
  s.record(done);
  done.wait();
  EXPECT_TRUE(flag.load());
}

TEST(Device, StreamOrderedAllocator) {
  context ctx(2);
  stream s(ctx);
  int* allocated = nullptr;
  s.malloc_async(sizeof(int) * 16, [&](void* p) { allocated = static_cast<int*>(p); });
  s.host_callback([&] { allocated[3] = 9; });
  int out = 0;
  s.host_callback([&] { out = allocated[3]; });
  s.free_async(nullptr);  // no-op free is legal
  s.synchronize();
  EXPECT_EQ(out, 9);
  ctx.free(allocated);
}

TEST(Device, HostOverlapsWithDeviceWork) {
  // The Section V-C property: after enqueueing device work the host thread
  // is immediately free. We verify the enqueue returns before the kernel
  // completes.
  context ctx(2);
  stream s(ctx);
  std::atomic<bool> kernel_done{false};
  s.launch(1, 1, [&](thread_id) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    kernel_done = true;
  });
  // Back on the host immediately; the kernel must still be running.
  EXPECT_FALSE(kernel_done.load());
  s.synchronize();
  EXPECT_TRUE(kernel_done.load());
}

TEST(Device, DeviceSynchronizeWaitsAllStreams) {
  context ctx(2);
  stream s1(ctx), s2(ctx);
  std::atomic<int> done{0};
  s1.host_callback([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    done.fetch_add(1);
  });
  s2.host_callback([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    done.fetch_add(1);
  });
  ctx.synchronize();
  EXPECT_EQ(done.load(), 2);
}

TEST(Device, CountersReset) {
  context ctx(2);
  stream s(ctx);
  s.launch(1, 1, [](thread_id) {});
  s.synchronize();
  EXPECT_GT(ctx.kernels_launched(), 0u);
  ctx.reset_counters();
  EXPECT_EQ(ctx.kernels_launched(), 0u);
  EXPECT_EQ(ctx.threads_executed(), 0u);
}

TEST(Device, ZeroSizedLaunchIsNoop) {
  context ctx(2);
  stream s(ctx);
  s.launch(0, 64, [](thread_id) { FAIL(); });
  s.launch(4, 0, [](thread_id) { FAIL(); });
  s.synchronize();
  SUCCEED();
}

TEST(Device, BufferMoveSemantics) {
  context ctx(2);
  buffer<int> a(10, ctx);
  int* p = a.device_ptr();
  buffer<int> b = std::move(a);
  EXPECT_EQ(b.device_ptr(), p);
  EXPECT_EQ(a.device_ptr(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.empty());
  a = std::move(b);
  EXPECT_EQ(a.device_ptr(), p);
}

}  // namespace
}  // namespace odrc::device
