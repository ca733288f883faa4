from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
# more examples for the property suites, run apart from Tier-1
settings.register_profile("deep", parent=settings.get_profile("suite"),
                          max_examples=2000)
settings.load_profile("suite")
