// R4 fixture: the complete contract (nextWakeTick + checkpoint
// declared), plus a stateless subclass that is exempt.
#ifndef FIXTURE_R4_OK_HH
#define FIXTURE_R4_OK_HH

using Tick = unsigned long long;

namespace ckpt
{
class Archive;
} // namespace ckpt

class Clocked
{
  public:
    virtual ~Clocked() = default;
    virtual void tick(Tick now) = 0;
    virtual Tick nextWakeTick(Tick now) const { return now + 1; }
};

class Prefetcher : public Clocked
{
  public:
    void tick(Tick now) override { lastAt_ = now; }
    Tick nextWakeTick(Tick now) const override { return now + 4; }
    void checkpoint(ckpt::Archive &a);

  private:
    Tick lastAt_ = 0;
};

class NullSink : public Clocked
{
  public:
    void tick(Tick) override {}
};

#endif
